"""The compiled training kernel: its bitwise oracle, its node-step count, its
rounding margin, its edge cases and its build.

``embed.train`` runs its loop in ``_skipgram.c``; ``tests/test_train_oracle.py``
compares it with the numpy trainer ``oracles.train_numpy`` on small random
corpora. This file covers what that comparison cannot: that the interleaved
loop leaves every unrounded bit as the node-by-node loop of
``skipgram_reference.c`` does and counts the node steps that loop counts, that
the count is the closed form, how far the golden trainings sit from a
rounding boundary, inputs at the kernel's edges, and the compile-and-cache
step.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sessionvalue import embed
from sessionvalue.config import load_run_config
from sessionvalue.corpus import load_dataset
from sessionvalue.embed import (
    Hyperparams,
    _fit,
    _huffman,
    _initial_vectors,
    _sentences,
    build_vocab,
    dump_model,
    train,
)
from sessionvalue.errors import EmptyVocabularyError, KernelBuildError, SessionValueError

from conftest import CONFIG_DIR
from helpers import mk_dataset
from oracles import fit_numpy, train_numpy

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SRC = TESTS.parent / "src"

# The smallest unrounded distance to a rounding boundary must be at least this
# multiple of the kernel-versus-numpy drift. Measured: 6.2e5 on the benchmark
# training (margin 2.2e-9, drift 3.6e-15) and 4.8e8 on the smoke training
# (margin 1.9e-7, drift 3.9e-16). At the full.yaml shape it is only about
# 6,600 (margin 6.68e-10, drift 1.01e-13, measured with
# rounding_margin_and_drift on a 2-vCPU Xeon with AVX-512F), so this is a
# floor for the golden trainings, not a bound for every input.
MARGIN_OVER_DRIFT = 100_000


def rounding_margin_and_drift(dataset, hyper: Hyperparams) -> tuple[float, float]:
    """The smallest distance from any unrounded kernel component to a rounding
    boundary, and the largest kernel-versus-numpy difference of a component."""
    _, kernel, _ = _fit(dataset, hyper)
    _, oracle, _ = fit_numpy(dataset, hyper)
    scale = 10.0 ** hyper.rounding_digits
    scaled = kernel * scale
    margin = float(np.min(np.abs(scaled - np.floor(scaled) - 0.5))) / scale
    drift = float(np.max(np.abs(kernel - oracle)))
    return margin, drift


@pytest.mark.parametrize("name", ["benchmark", "smoke"])
def test_golden_training_rounding_margin_dwarfs_drift(name):
    hyper = load_run_config(CONFIG_DIR / f"{name}.yaml").hyper
    dataset = load_dataset(GOLDEN / name / "sessions.jsonl", GOLDEN / name / "catalog.jsonl")
    margin, drift = rounding_margin_and_drift(dataset, hyper)
    assert margin >= MARGIN_OVER_DRIFT * drift, (margin, drift)


def interleaved_sessions(counts: list[int], length: int) -> list[list[str]]:
    """Product ``P<i>`` clicked ``counts[i]`` times, the products interleaved
    round by round, cut into sessions of ``length`` clicks."""
    tokens = []
    for depth in range(max(counts)):
        tokens += [f"P{i:02d}" for i, c in enumerate(counts) if depth < c]
    return [tokens[i:i + length] for i in range(0, len(tokens), length)]


def sessions_dataset(sessions: list[list[str]]):
    return mk_dataset([(f"s{i:04d}", 0, products) for i, products in enumerate(sessions)])


def longest_path(dataset, min_count: int) -> int:
    _, _, offsets = _huffman(build_vocab(dataset, min_count).frequencies)
    return int(np.diff(offsets).max())


def closed_form_node_steps(dataset, hyper: Hyperparams) -> int:
    """The node steps of one training in closed form: over every token of
    every sentence, its contexts (the other tokens of its window) times its
    path length, summed, times the iterations."""
    vocab = build_vocab(dataset, hyper.min_count)
    _, _, offsets = _huffman(vocab.frequencies)
    path_length = np.diff(offsets).tolist()
    per_iteration = 0
    for sentence in _sentences(dataset, vocab):
        m = len(sentence)
        for i, w in enumerate(sentence):
            contexts = min(m, i + hyper.window + 1) - max(i - hyper.window, 0) - 1
            per_iteration += contexts * path_length[w]
    return per_iteration * hyper.iterations


# Fibonacci frequencies make a caterpillar tree: the rarest products have paths
# of n - 1 nodes, so the paths take every length from 1 to 15. That leaves every
# remainder after the kernel's groups of 2 or 4 dot nodes, and it runs paths of
# every length through the update's vector registers.
FIBONACCI = [1, 1]
while len(FIBONACCI) < 16:
    FIBONACCI.append(FIBONACCI[-1] + FIBONACCI[-2])
CATERPILLAR = interleaved_sessions(FIBONACCI, 12)


@pytest.fixture(scope="module")
def reference_kernel(tmp_path_factory):
    """``skipgram_reference.c``, the node-by-node loop, built with the
    production ``KERNEL_BUILD`` and typed like the production entry point."""
    target = tmp_path_factory.mktemp("reference") / "skipgram_reference.so"
    command = [*embed.KERNEL_BUILD, str(TESTS / "skipgram_reference.c"), "-lm", "-o", str(target)]
    subprocess.run(command, check=True, capture_output=True)
    kernel = ctypes.CDLL(str(target)).sv_skipgram_train
    kernel.argtypes = embed.load_kernel().argtypes
    kernel.restype = ctypes.c_int64
    return kernel


def kernel_library() -> ctypes.CDLL:
    """The production kernel's shared library, built if needed."""
    return ctypes.CDLL(str(embed._build(embed._cache_dir())))


# The copies that need a CPU feature, with the flag ``__builtin_cpu_supports``
# and ``/proc/cpuinfo`` name it by.
CPU_FLAG = {"avx2": "avx2", "avx512": "avx512f"}


def kernel_copy(name: str):
    """The production kernel's entry point with the ``name`` copy of the
    dot and update passes, typed like ``sv_skipgram_train``. The AVX2 and
    AVX-512 copies are skipped only where ``__builtin_cpu_supports`` says the
    CPU lacks their feature."""
    library = kernel_library()
    if name in CPU_FLAG and not getattr(library, f"sv_skipgram_cpu_has_{name}")():
        pytest.skip(f"this CPU has no {CPU_FLAG[name]} (__builtin_cpu_supports), so the {name} copy cannot run")
    kernel = getattr(library, f"sv_skipgram_train_{name}")
    kernel.argtypes = embed.load_kernel().argtypes
    kernel.restype = ctypes.c_int64
    return kernel


def test_dispatch_runs_the_widest_copy_the_cpu_has():
    """``sv_skipgram_train`` runs the entry point ``sv_skipgram_pick``
    returns: the AVX-512 copy where the CPU has AVX-512F, else the AVX2 copy
    where it has AVX2, else the generic copy; and each check agrees with the
    CPU's flags in ``/proc/cpuinfo``."""
    library = kernel_library()
    library.sv_skipgram_pick.restype = ctypes.c_void_p
    has = {name: bool(getattr(library, f"sv_skipgram_cpu_has_{name}")()) for name in CPU_FLAG}
    picked = "avx512" if has["avx512"] else "avx2" if has["avx2"] else "generic"
    expected = getattr(library, f"sv_skipgram_train_{picked}")
    assert library.sv_skipgram_pick() == ctypes.cast(expected, ctypes.c_void_p).value
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        flags = {f for line in cpuinfo.read_text().splitlines() if line.startswith("flags") for f in line.split()}
        assert has == {name: flag in flags for name, flag in CPU_FLAG.items()}


def assert_bit_identical(reference, dataset, hyper: Hyperparams, kernel=None) -> None:
    """Run one ``_fit`` through ``kernel`` (the loaded entry point when None)
    and, on copies of the same inputs (with ``neu`` scratch), through the
    reference loop: the unrounded ``syn0`` and ``syn1`` must be equal bit for
    bit, and the two loops must count the same node steps."""
    kernel = kernel or embed.load_kernel()
    pairs = []

    def both(syn0, syn1, scratch, dims, *rest):
        ref0, ref1 = syn0.copy(), syn1.copy()
        expected_steps = reference(ref0, ref1, np.empty(dims), dims, *rest)
        steps = kernel(syn0, syn1, scratch, dims, *rest)
        pairs.extend([(syn0, ref0), (syn1, ref1), (steps, expected_steps)])
        return steps

    with pytest.MonkeyPatch.context() as m:
        m.setattr(embed, "_kernel", both)
        _fit(dataset, hyper)
    (syn0, ref0), (syn1, ref1), (steps, expected_steps) = pairs
    assert syn0.tobytes() == ref0.tobytes()
    assert syn1.tobytes() == ref1.tobytes()
    assert steps == expected_steps


class TestReferenceLoop:
    """The generic copy of the interleaved kernel against the node-by-node
    loop it replaced: the unrounded vectors must agree bit for bit, not just
    after rounding. ``TestReferenceLoopAvx2`` and ``TestReferenceLoopAvx512``
    run the same cases against the AVX2 and AVX-512 copies."""

    copy = "generic"

    @settings(
        max_examples=60,
        derandomize=True,
        deadline=None,
        # Three classes run this method; derandomized, it keeps no replay
        # database that they could confuse.
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.differing_executors],
    )
    @given(
        # Powers of two make lopsided Huffman trees, so paths of many lengths.
        sessions=st.builds(
            interleaved_sessions,
            st.lists(st.integers(0, 7).map(lambda e: 1 << e), min_size=1, max_size=20),
            st.integers(1, 15),
        ),
        hyper=st.builds(
            Hyperparams,
            # Every tail length of an 8-double block (the dot lanes and the
            # update), below and above one block, and at one, two and four
            # blocks.
            dimensions=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 32, 33]),
            iterations=st.integers(1, 2),
            window=st.integers(1, 4),
            min_count=st.just(1),
            rng_seed=st.integers(0, 5),
        ),
    )
    @example(sessions=CATERPILLAR, hyper=Hyperparams(dimensions=8, iterations=2, min_count=1))
    # A one-entry vocabulary: every path is empty and the scratch has no room.
    @example(sessions=[["A", "A", "A"], ["B"]], hyper=Hyperparams(dimensions=9, min_count=2))
    @example(sessions=CATERPILLAR, hyper=Hyperparams(dimensions=13, window=3, min_count=1))
    def test_matches_reference_bit_for_bit(self, reference_kernel, sessions, hyper):
        assert_bit_identical(reference_kernel, sessions_dataset(sessions), hyper, kernel_copy(self.copy))

    @pytest.mark.parametrize("dimensions", [*range(1, 18), 33, 40, 41, 47, 48, 56, 64, 79, 80, 83, 91])
    def test_caterpillar_every_block_tail(self, reference_kernel, dimensions):
        """Each tail length of an 8-double block, below and above one block,
        against paths of every length from 1 to 15; and from 40 on, each part
        of the update: whole sweeps of the AVX-512 copy's 5 blocks, 1 to 4
        blocks left over after them, and the tail, alone and together."""
        hyper = Hyperparams(dimensions=dimensions, window=2, min_count=1)
        assert_bit_identical(reference_kernel, sessions_dataset(CATERPILLAR), hyper, kernel_copy(self.copy))

    def test_golden_benchmark_inputs(self, reference_kernel):
        hyper = load_run_config(CONFIG_DIR / "benchmark.yaml").hyper
        assert hyper.dimensions == 200
        dataset = load_dataset(GOLDEN / "benchmark" / "sessions.jsonl", GOLDEN / "benchmark" / "catalog.jsonl")
        assert_bit_identical(reference_kernel, dataset, hyper, kernel_copy(self.copy))


class TestReferenceLoopAvx2(TestReferenceLoop):
    """``TestReferenceLoop`` against the AVX2 copy, which the dispatch runs on
    a CPU with AVX2 but without AVX-512F."""

    copy = "avx2"


class TestReferenceLoopAvx512(TestReferenceLoop):
    """``TestReferenceLoop`` against the AVX-512 copy, which the dispatch runs
    on a CPU with AVX-512F."""

    copy = "avx512"


class TestEdges:
    def test_long_huffman_paths_match_oracle(self):
        dataset = sessions_dataset(CATERPILLAR)
        hyper = Hyperparams(dimensions=4, iterations=1, window=2, min_count=1, rng_seed=1)
        assert longest_path(dataset, 1) >= 15
        assert dump_model(train(dataset, hyper)) == dump_model(train_numpy(dataset, hyper))

    def test_one_entry_vocabulary_keeps_the_init(self):
        # syn1 has zero rows and every path is empty: nothing is trained.
        dataset = mk_dataset([("a", 0, ["A", "A", "A"]), ("b", 0, ["B"])])
        hyper = Hyperparams(dimensions=4, window=2, min_count=2, rng_seed=3)
        vocab, syn0, node_steps = _fit(dataset, hyper)
        assert vocab.products == ("A",)
        assert np.array_equal(syn0, _initial_vectors(1, 4, 3))
        assert node_steps == 0
        assert dump_model(train(dataset, hyper)) == dump_model(train_numpy(dataset, hyper))

    def test_sentences_shorter_than_the_window(self):
        dataset = mk_dataset([("a", 0, ["A", "B"]), ("b", 0, ["C"]), ("c", 0, ["B", "C", "A"])])
        hyper = Hyperparams(dimensions=4, window=5, min_count=1)
        assert np.allclose(_fit(dataset, hyper)[1], fit_numpy(dataset, hyper)[1], rtol=0, atol=1e-15)
        assert dump_model(train(dataset, hyper)) == dump_model(train_numpy(dataset, hyper))


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sessions=st.builds(
        interleaved_sessions,
        st.lists(st.integers(0, 5).map(lambda e: 1 << e), min_size=1, max_size=12),
        st.integers(1, 15),
    ),
    hyper=st.builds(
        Hyperparams,
        dimensions=st.integers(1, 9),
        iterations=st.integers(1, 3),
        window=st.integers(1, 6),
        min_count=st.integers(1, 3),
    ),
)
@example(sessions=CATERPILLAR, hyper=Hyperparams(dimensions=4, iterations=2, window=3, min_count=1))
def test_node_steps_are_the_closed_form(sessions, hyper):
    """The kernel's count of (center, context, path node) steps;
    ``TestReferenceLoop`` checks it against the reference loop's own count,
    copy by copy."""
    dataset = sessions_dataset(sessions)
    try:
        expected = closed_form_node_steps(dataset, hyper)
    except EmptyVocabularyError:
        return
    assert _fit(dataset, hyper)[2] == expected


def _kernel_args() -> list:
    """Valid arguments for the three-entry vocabulary of ``_huffman([2, 1, 1])``,
    whose longest path has two nodes, and one three-token sentence."""
    def ints(*values):
        return np.array(values, dtype=np.int64)

    return [
        np.zeros((3, 4)), np.zeros((2, 4)), np.zeros(2), 4,  # syn0, syn1, scratch, dims
        ints(0, 1, 2), ints(0, 3), 1,  # tokens, sentence offsets, sentences
        ints(1, 1, 0, 1, 0), np.array([0.0, 1.0, 0.0, 1.0, 1.0]), ints(0, 1, 3, 5),  # paths
        1, 1, 0.025, 0.0000025,  # iterations, window, learning rate and its floor
    ]


def test_kernel_runs_on_valid_arguments():
    """The three centers have paths of 1, 2 and 2 nodes and 1, 2 and 1
    contexts at window 1: 7 node steps."""
    args = _kernel_args()
    args[0][:] = 0.1
    assert embed.load_kernel()(*args) == 7
    assert not np.array_equal(args[0], np.full((3, 4), 0.1))


def test_scratch_of_exactly_the_longest_path_is_enough():
    """``_fit`` passes one scratch double per node of the longest path, and
    the kernel writes nothing past it."""
    dataset = sessions_dataset(CATERPILLAR)
    hyper = Hyperparams(dimensions=9, window=2, min_count=1)
    kernel = embed.load_kernel()
    calls = []

    def guarded(syn0, syn1, scratch, *rest):
        padded = np.full(len(scratch) + 8, -7.0)
        calls.append((len(scratch), padded[len(scratch):]))
        return kernel(syn0, syn1, padded[:len(scratch)], *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(embed, "_kernel", guarded)
        _, syn0, _ = _fit(dataset, hyper)
    [(size, guard)] = calls
    assert size == longest_path(dataset, 1) >= 15
    assert np.array_equal(guard, np.full(8, -7.0))
    assert syn0.tobytes() == _fit(dataset, hyper)[1].tobytes()


def test_kernel_reads_the_huffman_arrays():
    """``_fit`` hands the kernel ``_huffman``'s points and offsets as they
    are, and ``1 - code`` for the branch bits."""
    dataset = sessions_dataset(CATERPILLAR)
    hyper = Hyperparams(dimensions=4, window=2, min_count=1)
    kernel = embed.load_kernel()
    calls = []

    def spy(*args):
        calls.append([np.array(a) for a in args[7:10]])
        return kernel(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(embed, "_kernel", spy)
        vocab, _, _ = _fit(dataset, hyper)
    points, code, offsets = _huffman(vocab.frequencies)
    [(got_points, got_one_minus_code, got_offsets)] = calls
    assert got_points.tolist() == points.tolist()
    assert got_one_minus_code.tolist() == (1.0 - code).tolist()
    assert got_offsets.tolist() == offsets.tolist()


def test_kernel_scratch_has_a_cache_line_of_its_own_buffer_on_each_side():
    """The scratch the kernel writes on every step is a view with at least
    64 bytes of its buffer before and after it, so it shares no cache line
    with memory that another thread's training writes."""
    dataset = sessions_dataset(CATERPILLAR)
    hyper = Hyperparams(dimensions=4, window=2, min_count=1)
    kernel = embed.load_kernel()
    margins = []

    def spy(*args):
        scratch = args[2]
        buffer = scratch.base
        assert buffer.flags.owndata and buffer.base is None
        start, end = scratch.ctypes.data, scratch.ctypes.data + scratch.nbytes
        margins.append((start - buffer.ctypes.data, buffer.ctypes.data + buffer.nbytes - end))
        return kernel(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(embed, "_kernel", spy)
        _fit(dataset, hyper)
    [(before, after)] = margins
    assert before >= 64 and after >= 64


def test_trainings_in_two_threads_match_them_one_after_the_other():
    """Two trainings on different datasets, run at once in two threads, leave
    the unrounded ``syn0`` bits that they leave run one after the other."""
    runs = [
        (load_dataset(GOLDEN / name / "sessions.jsonl", GOLDEN / name / "catalog.jsonl"),
         load_run_config(CONFIG_DIR / f"{name}.yaml").hyper)
        for name in ("benchmark", "smoke")
    ]

    def fit(run):
        return _fit(*run)[1].tobytes()

    serial = [fit(run) for run in runs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            assert list(pool.map(fit, runs)) == serial


@pytest.mark.parametrize("position", [0, 1, 2, 4, 5, 7, 8, 9])
def test_non_contiguous_array_cannot_reach_kernel(position):
    args = _kernel_args()
    wide = np.repeat(args[position], 2, axis=-1)
    args[position] = wide[..., ::2]
    assert not args[position].flags.c_contiguous
    with pytest.raises(ctypes.ArgumentError):
        embed.load_kernel()(*args)


@pytest.mark.parametrize("position", [0, 2, 4, 8])
def test_wrong_dtype_cannot_reach_kernel(position):
    args = _kernel_args()
    other = np.int32 if args[position].dtype == np.float64 else np.float64
    args[position] = args[position].astype(other)
    with pytest.raises(ctypes.ArgumentError):
        embed.load_kernel()(*args)


# The writable data (``nm`` types ``b``, ``B``, ``d`` and ``D``) that the
# toolchain puts into any shared library it links: the ELF bookkeeping of the
# start files, and libgcc's CPU-feature records behind
# ``__builtin_cpu_supports``, which its constructor fills once at load.
TOOLCHAIN_DATA = frozenset({
    "_DYNAMIC", "_GLOBAL_OFFSET_TABLE_", "__TMC_END__", "__dso_handle", "completed.0",
    "__frame_dummy_init_array_entry", "__do_global_dtors_aux_fini_array_entry",
    "__cpu_model", "__cpu_features2",
})


def writable_data(library: Path) -> set[str]:
    """The symbols of writable data that ``nm --defined-only`` lists for
    ``library``, beyond ``TOOLCHAIN_DATA``."""
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm is not installed, so the kernel's symbols cannot be listed")
    listing = subprocess.run(
        [nm, "--defined-only", str(library)], capture_output=True, text=True, check=True
    ).stdout
    fields = [line.split() for line in listing.splitlines()]
    return {f[2] for f in fields if len(f) == 3 and f[1] in {"b", "B", "d", "D"}} - TOOLCHAIN_DATA


class TestNoWritableGlobals:
    """Trainings in threads share the loaded kernel, so the library may keep
    no writable state of its own: each training writes only its arguments."""

    def test_kernel_defines_no_writable_data(self):
        assert writable_data(embed._build(embed._cache_dir())) == set()

    def test_a_static_buffer_is_caught(self, tmp_path):
        source = tmp_path / "_skipgram.c"
        source.write_text(
            embed._SOURCE.read_text()
            + "static double sv_shared[8];\ndouble *sv_shared_buffer(void) { return sv_shared; }\n"
        )
        library = tmp_path / "shared.so"
        subprocess.run([*embed.KERNEL_BUILD, str(source), "-lm", "-o", str(library)], check=True)
        assert writable_data(library) == {"sv_shared"}


class TestBuild:
    @pytest.mark.parametrize("source", [embed._SOURCE, TESTS / "skipgram_reference.c"], ids=lambda p: p.name)
    def test_source_compiles_without_warnings(self, tmp_path, source):
        """``KERNEL_BUILD`` with ``-Wall -Wextra -Werror`` builds both C
        sources, so dead code such as an unused static function fails here."""
        command = [*embed.KERNEL_BUILD, "-Wall", "-Wextra", "-Werror", str(source), "-lm", "-o", str(tmp_path / "out.so")]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_cache_directory_is_private(self, tmp_path):
        cache = tmp_path / "cache"
        built = embed._build(cache)
        assert built.parent == cache and built.is_file()
        assert cache.stat().st_mode & 0o077 == 0
        assert [p.name for p in cache.iterdir()] == [built.name]
        assert embed._build(cache) == built

    def test_source_or_flags_change_the_file_name(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        base = embed._kernel_file(cache)
        source = tmp_path / "_skipgram.c"
        source.write_text(embed._SOURCE.read_text() + "/* edited */\n")
        with monkeypatch.context() as m:
            m.setattr(embed, "_SOURCE", source)
            edited = embed._kernel_file(cache)
        with monkeypatch.context() as m:
            m.setattr(embed, "KERNEL_BUILD", embed.KERNEL_BUILD + ("-DSV_UNUSED",))
            flagged = embed._kernel_file(cache)
        assert len({base, edited, flagged}) == 3
        assert embed._kernel_file(cache) == base

    def test_unrounded_bits_do_not_depend_on_the_optimisation_level(self, tmp_path, monkeypatch):
        """An ``-O0`` build of ``KERNEL_BUILD`` trains the golden benchmark
        inputs to the production build's unrounded ``syn0``, bit for bit. gcc
        fuses no multiply-add into an FMA at ``-O0``, so this also fails when
        ``-ffp-contract=off`` goes and the ``-O3`` build fuses, on any CPU."""
        hyper = load_run_config(CONFIG_DIR / "benchmark.yaml").hyper
        dataset = load_dataset(GOLDEN / "benchmark" / "sessions.jsonl", GOLDEN / "benchmark" / "catalog.jsonl")
        _, production, _ = _fit(dataset, hyper)
        assert "-O3" in embed.KERNEL_BUILD
        monkeypatch.setattr(embed, "KERNEL_BUILD", tuple("-O0" if f == "-O3" else f for f in embed.KERNEL_BUILD))
        monkeypatch.setattr(embed, "_kernel", embed._load(tmp_path))
        _, unoptimised, _ = _fit(dataset, hyper)
        assert unoptimised.tobytes() == production.tobytes()

    def test_missing_compiler_names_the_command(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(embed, "KERNEL_BUILD", (missing, *embed.KERNEL_BUILD[1:]))
        with pytest.raises(KernelBuildError, match="no-such-cc") as info:
            embed._build(tmp_path / "cache")
        assert isinstance(info.value, SessionValueError)
        assert "No such file" in str(info.value)
        assert list((tmp_path / "cache").iterdir()) == []

    def test_failing_compiler_reports_its_stderr(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embed, "KERNEL_BUILD", embed.KERNEL_BUILD + ("-fno-such-option",))
        with pytest.raises(KernelBuildError) as info:
            embed._build(tmp_path / "cache")
        # Named once in the command and again in the compiler's own stderr.
        assert str(info.value).count("-fno-such-option") >= 2
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize("mode", [0o770, 0o702, 0o777])
    def test_writable_by_others_is_refused(self, tmp_path, mode):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(mode)
        with pytest.raises(KernelBuildError, match="refusing kernel cache"):
            embed._build(cache)
        assert list(cache.iterdir()) == []

    def test_other_owner_is_refused(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        with pytest.raises(KernelBuildError, match="refusing kernel cache"):
            embed._build(cache)

    def test_symlink_is_refused(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        (tmp_path / "cache").symlink_to(real)
        with pytest.raises(KernelBuildError, match="refusing kernel cache"):
            embed._build(tmp_path / "cache")

    def test_concurrent_builds_both_load_a_correct_kernel(self, tmp_path):
        """Two processes build the same key into an empty cache at once; each
        loads its result and trains a model identical to the oracle's."""
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from sessionvalue import embed\n"
            "from helpers import mk_dataset\n"
            "cache, ready, go = map(Path, sys.argv[1:4])\n"
            "ready.touch()\n"
            "deadline = time.monotonic() + 60\n"
            "while not go.exists() and time.monotonic() < deadline:\n"
            "    time.sleep(0.001)\n"
            "embed._kernel = embed._load(cache)\n"
            "ds = mk_dataset([('a', 0, list('ABCAB')), ('b', 0, list('CBA'))])\n"
            "hyper = embed.Hyperparams(dimensions=6, iterations=2, window=2, min_count=1)\n"
            "sys.stdout.write(embed.dump_model(embed.train(ds, hyper)))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
        cache, go = tmp_path / "cache", tmp_path / "go"
        readies = [tmp_path / f"ready{i}" for i in range(2)]
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache), str(ready), str(go)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for ready in readies
        ]
        try:
            deadline = time.monotonic() + 60
            while not all(r.exists() for r in readies) and time.monotonic() < deadline:
                time.sleep(0.001)
        finally:
            go.touch()
        results = [child.communicate(timeout=120) for child in children]
        ds = mk_dataset([("a", 0, list("ABCAB")), ("b", 0, list("CBA"))])
        expected = dump_model(train_numpy(ds, Hyperparams(dimensions=6, iterations=2, window=2, min_count=1)))
        for child, (out, err) in zip(children, results):
            assert child.returncode == 0, err
            assert out == expected
        assert [p.name for p in cache.iterdir()] == [embed._kernel_file(cache).name]
