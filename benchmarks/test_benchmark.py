"""Tests of the benchmark itself: every checker rejects corrupted outputs,
the small mode runs every workload, traced counts repeat, and the metric
names agree with BENCHMARK.json.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import verify  # noqa: E402
from verify import Ring  # noqa: E402

from envnorm import ActionContext, EnvElement, builtin_examples, normal_order, run_suite  # noqa: E402
from envnorm import PROPERTY_NAMES, SuiteConfig, straighten  # noqa: E402
from envnorm import sl_algebra, sl_triangular_split  # noqa: E402
from envnorm.ring import make_ring  # noqa: E402

Z = Ring("Z")


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

def _first(out, pred=lambda key: True):
    return next(k for k in sorted(out, key=repr) if pred(k))


def flip(out, key=None):
    key = key or _first(out)
    return {k: (-c if k == key else c) for k, c in out.items()}


def drop(out, key=None):
    key = key or _first(out)
    return {k: c for k, c in out.items() if k != key}


def unsort_state(out):
    # reverse a left word with two different letters
    key = _first(out, lambda k: len(set(k[0])) > 1)
    return {((k[0][::-1], k[1]) if k == key else k): c for k, c in out.items()}


def unsort_words(out):
    key = _first(out, lambda w: len(set(w)) > 1)
    return {(k[::-1] if k == key else k): c for k, c in out.items()}


def _top(length):
    return lambda k: len(k[0]) + len(k[1]) == length


# ---------------------------------------------------------------------------
# normal-order outputs: a real program output on sl3, corrupted
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sl3_case():
    alg = sl_algebra(3, make_ring("Z"))
    ctx = ActionContext(alg, sl_triangular_split(alg, 3))
    bench = verify.sl_algebra(3, Z)
    # lowers then uppers: E21 E32 E31 E12 E23 H1
    word = tuple(bench.index[b] for b in ("E21", "E32", "E31", "E12", "E23", "H1"))
    u = EnvElement.word(alg, [alg.index[bench.basis[i]] for i in word])
    out = verify.state_terms(normal_order(ctx, u, check=True))
    return bench, {word: 1}, out


def test_normal_order_checks_accept_program_output(sl3_case):
    bench, inp, out = sl3_case
    assert len(out) > 5
    assert verify.check_normal_order(bench, inp, out) == []


def test_shape_check_rejects_unsorted_word(sl3_case):
    bench, _inp, out = sl3_case
    assert verify.check_state_shape(bench, out) == []
    assert verify.check_state_shape(bench, unsort_state(out))
    # a part-2 letter moved into the left factor
    (w1, w2), c = next((k, c) for k, c in out.items() if k[1])
    moved = dict(drop(out, (w1, w2)))
    moved[(w1 + w2[:1], w2[1:])] = c
    assert verify.check_state_shape(bench, moved)


def test_degree_check_rejects_longer_term(sl3_case):
    bench, inp, out = sl3_case
    words = verify.merged(out)
    assert verify.check_degree(inp, words) == []
    longer = dict(words)
    longer[(0,) * 7] = 1
    assert verify.check_degree(inp, longer)


def test_symbol_check_rejects_top_degree_corruption(sl3_case):
    bench, inp, out = sl3_case
    top = _first(out, _top(6))
    assert verify.check_symbol(bench, inp, verify.merged(out)) == []
    assert verify.check_symbol(bench, inp, verify.merged(flip(out, top)))
    assert verify.check_symbol(bench, inp, verify.merged(drop(out, top)))


@pytest.mark.parametrize("corrupt", [flip, drop, unsort_state])
def test_witness_rejects_corruption(sl3_case, corrupt):
    bench, inp, out = sl3_case
    assert verify.check_witness(bench, inp, verify.merged(corrupt(out)))


@pytest.mark.parametrize("corrupt", [flip, drop, unsort_state])
def test_combined_normal_order_check_rejects_corruption(sl3_case, corrupt):
    bench, inp, out = sl3_case
    assert verify.check_normal_order(bench, inp, corrupt(out))


def test_witness_reduces_in_the_ring():
    # over Z/4 a coefficient of 4 is zero, and 5 equals 1
    bench = verify.sl_algebra(3, Ring("Zmod", 4))
    e12 = bench.index["E12"]
    assert verify.check_witness(bench, {(e12,): 1}, {(e12,): 5}) == []
    assert verify.check_witness(bench, {(e12,): 1}, {(e12,): 3})


# ---------------------------------------------------------------------------
# straighten outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def straighten_case():
    bench = verify.sl2_algebra(Z, ("f",), ("h", "e"), "sl2_Z")
    alg = builtin_examples()["sl2_Z"].algebra
    order = [bench.index["h"], bench.index["f"], bench.index["e"]]
    word = tuple(bench.index[b] for b in ("e", "e", "f", "h", "f"))
    text = str(straighten(EnvElement.word(alg, word), order))
    return bench, {word: 1}, verify.parse_word_sum(bench, text), order


def test_straighten_checks(straighten_case):
    bench, inp, out, order = straighten_case
    assert verify.check_straighten(bench, inp, out, order) == []
    for corrupt in (flip, drop, unsort_words):
        assert verify.check_straighten(bench, inp, corrupt(out), order), corrupt.__name__
    rank = [order.index(i) for i in range(bench.dim)]
    assert verify.check_word_shape(unsort_words(out), rank)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_forms_match_small_cases_and_reject_corruption():
    heis = verify.heisenberg_algebra(Z)
    # y x = x (x) y - 1 (x) c, the documented CLI example
    lines = ["1 * x (x) y", "-1 * 1 (x) c"]
    assert verify.heisenberg_yx(heis, 1) == verify.parse_state_lines(heis, lines)
    sl2 = verify.sl2_algebra(Z, ("f",), ("h", "e"), "sl2_Z")
    expected = verify.sl2_efn(sl2, 2)
    # e f f: straightforward hand computation
    f, e, h = sl2.index["f"], sl2.index["e"], sl2.index["h"]
    assert expected == {((f, f), (e,)): 1, ((f,), (h,)): 2, ((f,), ()): -2}
    assert verify.check_closed_form(expected, expected) == []
    assert verify.check_closed_form(expected, flip(expected))
    assert verify.check_closed_form(expected, drop(expected))
    unsorted = {((f, f), (e,)): 1, ((f,), (h,)): 2, ((), (f,)): -2}
    assert verify.check_closed_form(expected, unsorted)


# ---------------------------------------------------------------------------
# suite report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_report():
    cfg = SuiteConfig(seed=5, cases=2, max_degree=2)
    reg = builtin_examples()
    return reg.names(), cfg, run_suite(cfg, reg).render()


def test_suite_report_check(suite_report):
    names, cfg, text = suite_report
    assert verify.check_suite_report(text, names, PROPERTY_NAMES, cfg.cases, cfg.seed) == ([], 0)
    lines = text.splitlines()
    flipped = text.replace("lie_action       pass=2 fail=0", "lie_action       pass=1 fail=0", 1)
    dropped = "\n".join(line for line in lines if not line.strip().startswith("mu_compat"))
    swapped = "\n".join([lines[0], lines[2], lines[1], *lines[3:]])
    for corrupt in (flipped, dropped, swapped):
        problems, _failed = verify.check_suite_report(
            corrupt, names, PROPERTY_NAMES, cfg.cases, cfg.seed)
        assert problems


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def _run(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_small_mode_runs_every_workload(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the only failing operation is the deep straighten request, one per round
    round_lines = [line for line in proc.stdout.splitlines() if f"{workload} round" in line]
    assert len(round_lines) == run.workloads.ROUNDS * run.passes_for(workload, 1)
    for line in round_lines:
        if workload == "request_stream":
            assert "failed=1 errors: RecursionError x1 " in line
        else:
            assert "failed=0 errors: none " in line


def test_traced_counts_repeat_and_names_match_benchmark_json():
    results = []
    for _ in range(2):
        proc = _run("--workload", "suite", "--seed", "4", "--seconds", "1", "--trace", "1", "--small")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts and counts == {k: second["metrics"][k]["value"] for k in counts}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert {k: m["unit"] for k, m in first["metrics"].items()} == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    assert run.tracing.SUITE_PROPERTIES == PROPERTY_NAMES


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
