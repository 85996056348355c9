"""Vector recommender (VR): deterministic skip-gram training with hierarchical softmax.

Sessions are treated as sentences, one click per token. Training is strictly
single-threaded and a pure function of (dataset, hyperparameters): input
vectors come from a PRNG keyed by (rng_seed, entry index, dimension index),
tree-node vectors start at zero, the context window is fixed (never sampled),
and the learning rate decays linearly per token. Final vectors are rounded to
a fixed number of decimals, and similarities are computed over the rounded
vectors, so model dumps and rankings are byte-stable across runs.

The training loop is the C function in ``_skipgram.c``, called once per
training through ``ctypes``. It is compiled on first use with the pinned
``KERNEL_BUILD`` command into a per-user cache directory under the system
temporary directory, and loaded once per process. Its dot and update passes
exist in a generic, an AVX2 and an AVX-512 copy with the same bits; each call
runs the widest copy the CPU has.

``all_top_k_similar`` orders each seed's cosines with one ``np.lexsort`` on
(cosine desc, product id asc); ``tests/oracles.py`` keeps the sort of
(product, cosine) tuples it replaced.

Trainings may run in threads at once (``ctypes`` releases the GIL for the
kernel call), as ``sensitivity.iter_loo`` runs a leave-one-out baseline
beside its deltas from ``jobs=2`` and ``curve.run_curve`` runs its grid. The module state
they share is the loaded kernel, which the caller loads before any thread
starts and which is only read then, and the memo of initial rows
(``_init_row``), whose rows are read-only. Two threads that miss the same row
both build it, with the same bytes, so the memo needs no lock. Each training
writes only arrays of its own.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import stat
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from .cor import Ranked, _rank_order
from .corpus import Dataset
from .errors import EmptyVocabularyError, KernelBuildError

# Learning-rate floor, as a fraction of the initial rate.
LR_FLOOR_FRACTION = 1e-4

# The compiler and flags of the training kernel, part of its cache key. No
# -ffast-math and no -march: the model bytes rely on unfused, unreordered
# float arithmetic (see _skipgram.c).
KERNEL_BUILD = (
    *shlex.split(sysconfig.get_config_var("CC") or "cc"),
    "-O3", "-ffp-contract=off", "-shared", "-fPIC",
)
_SOURCE = Path(__file__).with_name("_skipgram.c")
_kernel = None  # the loaded entry point; see load_kernel


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. Architecture is fixed: skip-gram over a hierarchical
    softmax output, no subsampling, no negative sampling, single thread."""

    dimensions: int = 200
    iterations: int = 5
    window: int = 5
    min_count: int = 5
    initial_learning_rate: float = 0.025
    rounding_digits: int = 4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.dimensions}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if self.initial_learning_rate <= 0:
            raise ValueError("initial_learning_rate must be > 0")
        if self.rounding_digits < 1:
            raise ValueError(f"rounding_digits must be >= 1, got {self.rounding_digits}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class Vocabulary:
    """The products kept at ``min_count`` and their token frequencies, sorted
    by descending frequency, ties by ascending product id. A product's
    position is its entry index: its row of the vectors and its leaf of the
    Huffman tree, which ``_huffman`` builds from ``frequencies`` per training."""

    products: tuple[str, ...]
    frequencies: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.products)

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.products)}


@dataclass(eq=False)
class EmbeddingModel:
    vocabulary: Vocabulary
    vectors: np.ndarray
    hyper: Hyperparams
    node_steps: int  # the training's (center, context, path node) steps


def _huffman(frequencies: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Huffman tree of ``frequencies`` as the kernel reads it: ``(points,
    code, offsets)``.

    Entry i's root-to-leaf path of internal nodes is
    ``points[offsets[i]:offsets[i + 1]]`` (node ``n - 2`` is the root), and
    ``code`` holds its branch bits at the same positions; a one-entry
    vocabulary has an empty path. Uses the classic two-pointer construction
    over counts sorted descending; tie decisions fall on fixed pointer order,
    so the tree is a pure function of the frequency list.
    """
    n = len(frequencies)
    count = list(frequencies) + [1 << 62] * (n - 1)
    parent = [0] * (2 * n - 1)
    binary = [0] * (2 * n - 1)
    pos1 = n - 1
    pos2 = n
    for a in range(n - 1):
        picks = []
        for _ in range(2):
            if pos1 >= 0 and count[pos1] < count[pos2]:
                picks.append(pos1)
                pos1 -= 1
            else:
                picks.append(pos2)
                pos2 += 1
        min1, min2 = picks
        count[n + a] = count[min1] + count[min2]
        parent[min1] = n + a
        parent[min2] = n + a
        binary[min2] = 1
    # A child's index is below its parent's, so depths fill from the root down.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    offsets = _offsets(depth[:n])
    points = np.empty(offsets[-1], dtype=np.int64)
    code = np.empty(offsets[-1], dtype=np.float64)
    for leaf in range(n):
        node = leaf
        for at in range(offsets[leaf + 1] - 1, offsets[leaf] - 1, -1):
            points[at] = parent[node] - n
            code[at] = binary[node]
            node = parent[node]
    return points, code, offsets


def build_vocab(dataset: Dataset, min_count: int) -> Vocabulary:
    """Token-level frequencies (repeated clicks count) filtered at ``min_count``."""
    freq: dict[str, int] = {}
    for session in dataset.sessions:
        for product in session.products:
            freq[product] = freq.get(product, 0) + 1
    kept = [(p, f) for p, f in freq.items() if f >= min_count]
    if not kept:
        raise EmptyVocabularyError(min_count)
    _rank_order(kept)
    products, frequencies = zip(*kept)
    return Vocabulary(products, frequencies)


@cache
def _init_row(rng_seed: int, i: int, dimensions: int) -> np.ndarray:
    """Row i of the input-vector init, read-only: a PRNG keyed by (rng_seed, i)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, i])))
    row = (rng.random(dimensions) - 0.5) / dimensions
    row.setflags(write=False)
    return row


def _initial_vectors(n_entries: int, dimensions: int, rng_seed: int) -> np.ndarray:
    """Input-vector init keyed by (rng_seed, entry index, dimension index), as
    a fresh writable array. Row i depends only on (rng_seed, i, dimensions),
    so each row is kept per process by the memo ``_init_row`` and copied into
    every training that needs it; the kernel trains the copy in place."""
    return np.array([_init_row(rng_seed, i, dimensions) for i in range(n_entries)])


def _cache_dir() -> Path:
    return Path(tempfile.gettempdir()) / f"sessionvalue-{os.getuid()}"


def _private_dir(directory: Path) -> Path:
    """``directory``, created with mode 0o700 if missing; refused unless it is
    a real directory of this user that neither group nor others can write."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = os.lstat(directory)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise KernelBuildError(
            f"refusing kernel cache {directory}: it must be a directory owned by uid "
            f"{os.getuid()} that group and others cannot write (mode {stat.filemode(st.st_mode)}, "
            f"owner {st.st_uid})"
        )
    return directory


def _kernel_file(directory: Path) -> Path:
    """The kernel's path in ``directory``, named by the sha256 of its C source
    and of ``KERNEL_BUILD``."""
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update("\0".join(KERNEL_BUILD).encode())
    return directory / f"skipgram-{key.hexdigest()}.so"


def _build(directory: Path) -> Path:
    """Compile the kernel into ``directory`` unless it is there already.

    The compiler writes a unique temporary file that ``os.replace`` then moves
    into place, so processes building the same key at once each end with a
    complete file.
    """
    target = _kernel_file(_private_dir(directory))
    if target.is_file():
        return target
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=directory)
    os.close(fd)
    command = [*KERNEL_BUILD, str(_SOURCE), "-lm", "-o", tmp]
    try:
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"{shlex.join(command)} could not run: {exc}") from exc
        if done.returncode != 0:
            raise KernelBuildError(
                f"{shlex.join(command)} exited with {done.returncode}: {done.stderr.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load(directory: Path):
    """Build the kernel into ``directory`` if needed, load it and return its
    entry point, whose argument types refuse arrays of another dtype or shape
    and arrays that are not C-contiguous, and which returns the node steps."""
    kernel = ctypes.CDLL(str(_build(directory))).sv_skipgram_train
    i64 = ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    kernel.argtypes = [
        ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # syn0
        ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # syn1
        ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),  # scratch
        ctypes.c_int64,  # dims
        i64, i64, ctypes.c_int64,  # tokens, sentence_offsets, n_sentences
        i64, ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"), i64,  # path arrays
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
    ]
    kernel.restype = ctypes.c_int64
    return kernel


def load_kernel():
    """The compiled training loop, built on first use into a per-user cache
    directory and loaded once per process. A caller that trains in threads
    calls this first, before any thread starts."""
    global _kernel
    if _kernel is None:
        _kernel = _load(_cache_dir())
    return _kernel


def _offsets(lengths: list[int]) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _sentences(dataset: Dataset, vocab: Vocabulary) -> list[list[int]]:
    """Each session's clicks as vocabulary indices, tokens below min_count dropped."""
    index = vocab.index
    return [[index[p] for p in s.products if p in index] for s in dataset.sessions]


# The kernel writes its scratch, one double per node of the longest path, on
# every (center, context) step. A bare np.empty of that size can share a cache
# line with another thread's training, which slowed two trainings in threads
# intermittently; so the scratch gets one 64-byte line (8 doubles) of its own
# buffer on each side.
_SCRATCH_PAD = 8


def _fit(dataset: Dataset, hyper: Hyperparams) -> tuple[Vocabulary, np.ndarray, int]:
    """The vocabulary, the unrounded input vectors and the node steps of one training."""
    kernel = load_kernel()
    vocab = build_vocab(dataset, hyper.min_count)
    sents = _sentences(dataset, vocab)
    n = len(vocab)
    syn0 = _initial_vectors(n, hyper.dimensions, hyper.rng_seed)
    syn1 = np.zeros((max(n - 1, 0), hyper.dimensions), dtype=np.float64)
    points, code, offsets = _huffman(vocab.frequencies)
    scratch = np.empty(np.diff(offsets).max() + 2 * _SCRATCH_PAD)[_SCRATCH_PAD:-_SCRATCH_PAD]
    node_steps = kernel(
        syn0, syn1, scratch, hyper.dimensions,
        np.fromiter((w for s in sents for w in s), dtype=np.int64),
        _offsets([len(s) for s in sents]), len(sents),
        points, 1.0 - code, offsets,
        hyper.iterations, hyper.window, hyper.initial_learning_rate,
        hyper.initial_learning_rate * LR_FLOOR_FRACTION,
    )
    return vocab, syn0, node_steps


def _rounded(vocab: Vocabulary, syn0: np.ndarray, node_steps: int, hyper: Hyperparams) -> EmbeddingModel:
    """The model of unrounded input vectors ``syn0``: read-only vectors rounded
    to ``hyper.rounding_digits`` decimals."""
    vectors = np.round(syn0, hyper.rounding_digits)
    vectors.setflags(write=False)
    return EmbeddingModel(vocabulary=vocab, vectors=vectors, hyper=hyper, node_steps=node_steps)


def train(dataset: Dataset, hyper: Hyperparams) -> EmbeddingModel:
    """Train the embedding model; bit-identical output for identical inputs.

    Epochs iterate sessions in corpus order; tokens below min_count are
    dropped before windowing. For each center token, every in-window context
    token's input vector is updated against the center's Huffman path,
    sequentially, with the per-token linearly decayed learning rate. The loop
    runs in the compiled kernel (``_skipgram.c``), one call per training.
    """
    return _rounded(*_fit(dataset, hyper), hyper)


def _cosine_sims(model: EmbeddingModel, seed_idx: int, norms: np.ndarray) -> np.ndarray:
    v = model.vectors[seed_idx]
    dots = model.vectors @ v
    denom = norms * norms[seed_idx]
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)


def _norms(model: EmbeddingModel) -> np.ndarray:
    return np.sqrt(np.sum(model.vectors * model.vectors, axis=1))


def all_top_k_similar(model: EmbeddingModel, k: int) -> dict[str, Ranked]:
    """One cosine ranking per vocabulary product over the rounded vectors,
    ties by ascending product id: ``{seed: ((product, cosine), ...)}``, each
    cosine a Python float.

    Each seed's cosines are one matrix-vector product, ordered by one
    ``np.lexsort`` on (cosine desc, id rank asc); the first k + 1 entries hold
    the top k once the seed itself is dropped.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    norms = _norms(model)
    products = model.vocabulary.products
    by_id = sorted(range(len(products)), key=products.__getitem__)
    id_rank = np.empty(len(by_id), dtype=np.int64)
    id_rank[by_id] = np.arange(len(by_id))
    lists = {}
    for i in by_id:
        sims = _cosine_sims(model, i, norms)
        first = np.lexsort((id_rank, -sims))[:k + 1].tolist()
        lists[products[i]] = tuple((products[j], float(sims[j])) for j in first if j != i)[:k]
    return lists


def dump_model(model: EmbeddingModel) -> str:
    """Canonical text dump: ``n_entries dimensions`` header, then one line per
    entry with vector components printed at exactly ``rounding_digits`` decimals."""
    digits = model.hyper.rounding_digits
    lines = [f"{len(model.vocabulary)} {model.hyper.dimensions}"]
    for product, row in zip(model.vocabulary.products, model.vectors):
        comps = " ".join(f"{x:.{digits}f}" for x in row)
        lines.append(f"{product} {comps}")
    return "".join(line + "\n" for line in lines)
