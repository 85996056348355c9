"""Golden digests at the ``configs/full.yaml`` shape.

The golden trees of ``test_golden.py`` come from ``benchmark`` (184 sessions,
a 39-entry vocabulary) and ``smoke``. The full shape (4,500 sessions, 400
products, 30,129 tokens) sits much closer to the edges of the byte contract:
its smallest distance from an unrounded vector component to a rounding
boundary is 1.6e-10 (2.2e-9 on benchmark), and its smallest cosine gap within
a seed's top k+1 is 6.4e-6 (2.5e-4). So these tests pin its bytes too, as
sha256 digests rather than 4,500-line files: the ``synth`` outputs, the
``cor`` model dump, top-k lists and valuation, and one ``vr`` baseline
training with its top-k lists.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from sessionvalue.cli import main
from sessionvalue.config import load_run_config
from sessionvalue.corpus import load_dataset
from sessionvalue.embed import all_top_k_similar, dump_model, train

from conftest import CONFIG_DIR

FULL_CONFIG = CONFIG_DIR / "full.yaml"

DIGESTS = {
    "sessions.jsonl": "74f3186c3bc5266fb2f83b576dca30cffd48dcd4d12ba1fdb7d9e3209200b0c6",
    "eval.jsonl": "3a8ed89c96bd96469cf84bd51dc0bb4d006bbdc03e90edf18aeed634ba8e7129",
    "cor_matrix.tsv": "d37236d36ac6c193ff76a7a61ff5a4e640e5f1cb565f6d0a86a9a299a845a0a8",
    "recs_cor.csv": "e46568377b1da172113495482d88ffba7787f2521060728f2f3a21c0594145b9",
    "records_cor.csv": "1318a96217df75111df4309a8945b5b748a47cbae9bf3f1adfa8bf3d4b83fb3d",
    "summary_cor.json": "60d33130477cc66b6b44ac8bebf1a050a02f4bce5987029c453d4870e175f0ac",
}
VR_MODEL_DIGEST = "ae36e607ac95f6aa4446749c847b002734ef796fc8d308d9886fe35de8d74a40"
VR_TOPK_DIGEST = "f3b716e3502e2d68c89156a19ee9ed5dba6aff8251fed810439f40dfab85b64d"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def topk_text(topk) -> str:
    """One ``seed product score`` line per list entry, in seed and rank
    order, each score as its shortest round-trip ``repr``."""
    return "".join(
        f"{seed} {product} {score!r}\n" for seed in sorted(topk) for product, score in topk[seed].items
    )


@pytest.fixture(scope="module")
def full_dir(tmp_path_factory):
    """``synth``, then ``train``, ``recommend`` and ``value`` with
    ``--engine cor`` on the full recipe."""
    out = tmp_path_factory.mktemp("full")
    cor = ["--engine", "cor"]
    for command in (["synth"], ["train", *cor], ["recommend", *cor], ["value", *cor]):
        result = CliRunner().invoke(main, command + ["--config", str(FULL_CONFIG), "--out", str(out)])
        assert result.exit_code == 0, result.output
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_full_shape_file_digest(full_dir, name):
    assert sha256((full_dir / name).read_bytes()) == DIGESTS[name]


def test_full_shape_vr_baseline_digests(full_dir):
    rc = load_run_config(FULL_CONFIG)
    model = train(load_dataset(full_dir / "sessions.jsonl", full_dir / "catalog.jsonl"), rc.hyper)
    assert sha256(dump_model(model).encode()) == VR_MODEL_DIGEST
    assert sha256(topk_text(all_top_k_similar(model, rc.harness.k)).encode()) == VR_TOPK_DIGEST
