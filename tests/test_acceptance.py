"""Acceptance suite: every criterion at its stated size, exact equality
throughout (all arithmetic is exact, so every tolerance is zero).

Each test records one CRITERION pass/fail line; conftest prints the lines
in the terminal summary so they survive pytest's output capture.
"""

import time
from contextlib import contextmanager, redirect_stdout
from io import StringIO

import pytest

import _acceptance_log

from envnorm.checks import SuiteConfig, builtin_examples, generate, relator_variant
from envnorm.cli import main
from envnorm.envelope import env_eq, oracle_normal_order, state_eq
from envnorm.liealg import LieAlgebra, validate_algebra, validate_split
from envnorm.normalform import (
    ActionContext,
    check_filtration,
    check_inverse,
    check_lie_action,
    check_mu_compat,
    check_right_linearity,
    section_s,
)
from envnorm.ring import make_ring
from golden_runs import GOLDEN, GOLDEN_RUNS

REG = builtin_examples()
ENTRIES = REG.entries()
CONTEXTS = {
    e.name: ActionContext(e.algebra, e.split)  # validates every entry up front
    for e in ENTRIES
}


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        line = f"CRITERION {num} ({label}): FAIL"
        print(line)
        _acceptance_log.LINES.append(line)
        raise
    line = f"CRITERION {num} ({label}): PASS"
    print(line)
    _acceptance_log.LINES.append(line)


def _mutual_inverses(entry, seed: int) -> None:
    cfg = SuiteConfig(seed=seed, cases=200, max_degree=5)
    ctx = CONTEXTS.get(entry.name) or ActionContext(entry.algebra, entry.split)
    started = time.monotonic()
    for k in range(200):
        u = generate("element", cfg, entry, index=k)
        s = generate("state", cfg, entry, index=k)
        assert check_inverse(ctx, u, s) == (True, True), (entry.name, k)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"{entry.name}: {elapsed:.1f}s"


def _oracle_equivalence(entry, seed: int) -> None:
    cfg = SuiteConfig(seed=seed, cases=200, max_degree=5)
    ctx = CONTEXTS.get(entry.name) or ActionContext(entry.algebra, entry.split)
    for k in range(200):
        u = generate("element", cfg, entry, index=k)
        assert state_eq(section_s(ctx, u), oracle_normal_order(u, ctx.split)), (entry.name, k)


def _lie_action_exhaustive_pairs(entry, seed: int) -> None:
    cfg = SuiteConfig(seed=seed, cases=100, max_degree=3)
    ctx = CONTEXTS.get(entry.name) or ActionContext(entry.algebra, entry.split)
    alg = entry.algebra
    for k in range(100):
        s = generate("state", cfg, entry, index=k)
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert check_lie_action(
                    ctx, alg.basis_vector(i), alg.basis_vector(j), s
                ), (entry.name, k, alg.basis[i], alg.basis[j])


def _compatibility_ladder(entry, seed: int) -> None:
    cfg = SuiteConfig(seed=seed, cases=500, max_degree=4)
    ctx = CONTEXTS.get(entry.name) or ActionContext(entry.algebra, entry.split)
    split = entry.split
    for k in range(500):
        g = generate("vector", cfg, entry, index=k)
        s = generate("state", cfg, entry, index=k)
        w = generate("word", cfg, entry, index=k)
        w1 = tuple(l for l in w if split.side_of(l) == 1)
        m = tuple(l for l in w if split.side_of(l) == 2)
        assert check_filtration(ctx, g, s), (entry.name, "filtration", k)
        assert check_right_linearity(ctx, g, w1, m), (entry.name, "right_linearity", k)
        assert check_mu_compat(ctx, g, s), (entry.name, "mu_compat", k)


def test_criterion_1_mutual_inverses():
    with criterion(1, "mutual inverses"):
        for entry in ENTRIES:
            _mutual_inverses(entry, seed=42)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence"):
        for entry in ENTRIES:
            _oracle_equivalence(entry, seed=42)


def test_criterion_3_lie_action_law():
    with criterion(3, "Lie action law, exhaustive basis pairs"):
        for entry in ENTRIES:
            _lie_action_exhaustive_pairs(entry, seed=42)


def test_criterion_4_compatibility_ladder():
    with criterion(4, "filtration / right linearity / product compatibility"):
        for entry in ENTRIES:
            _compatibility_ladder(entry, seed=42)


def test_criterion_5_quotient_well_definedness():
    with criterion(5, "section constant on envelope classes"):
        cfg = SuiteConfig(seed=42, cases=100, max_degree=4)
        import random

        for entry in ENTRIES:
            ctx = CONTEXTS[entry.name]
            alg = entry.algebra
            part1 = entry.split.part1
            for k in range(100):
                u = generate("element", cfg, entry, index=k)
                host = generate("word", cfg, entry, index=k)
                rng = random.Random(9000 + k)
                u2 = relator_variant(
                    alg, u, host, rng.randint(0, len(host)),
                    rng.choice(part1), rng.choice(part1),
                    alg.ring.scalar(rng.randint(-5, 5)),
                )
                assert env_eq(u, u2), (entry.name, k)
                assert state_eq(section_s(ctx, u), section_s(ctx, u2)), (entry.name, k)


def test_criterion_6_composite_modulus():
    with criterion(6, "criteria 1-4 over Z/4 on sl3, (uppers+diag) | lowers"):
        entry = REG["sl3_Z4"]
        assert entry.ring.descriptor() == "Zmod 4"
        assert entry.ring.modulus == 4  # composite on purpose
        _mutual_inverses(entry, seed=43)
        _oracle_equivalence(entry, seed=43)
        _lie_action_exhaustive_pairs(entry, seed=43)
        _compatibility_ladder(entry, seed=43)


def test_criterion_7_validation_rejects_corruption():
    with criterion(7, "corrupted tables and non-closed splits rejected"):
        z = make_ring("Z")
        bad_jacobi = LieAlgebra.from_brackets(
            z, ("e", "f", "h"),
            {("e", "f"): {"e": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}},
        )
        report = validate_algebra(bad_jacobi)
        assert ("e", "f", "h") in [v.where for v in report.violations if v.kind == "jacobi"]

        bad_alt = LieAlgebra.from_brackets(
            z, ("e", "f", "h"),
            {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2},
             ("e", "e"): {"h": 1}},
        )
        report = validate_algebra(bad_alt)
        assert ("e", "e") in [v.where for v in report.violations if v.kind == "alternating"]

        good = LieAlgebra.from_brackets(
            z, ("e", "f", "h"),
            {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}},
        )
        report = validate_split(good, (0, 1), (2,))  # {e,f} | {h}
        closure = [v for v in report.violations if v.kind == "closure"]
        assert closure and closure[0].where == ("e", "f") and "h" in closure[0].detail

        # the same rejections through the CLI, exit code 1, offenders named
        for fname, needle in (
            ("sl2_bad_jacobi.alg", "jacobi violation at (e, f, h)"),
            ("sl2_bad_alternating.alg", "alternating violation at (e, e)"),
            ("sl2_bad_split.alg", "closure violation at (e, f)"),
        ):
            buf = StringIO()
            with redirect_stdout(buf):
                code = main(["validate", str(GOLDEN / fname)])
            assert code == 1, fname
            assert needle in buf.getvalue(), fname


def test_criterion_8_cli_golden():
    with criterion(8, "CLI golden outputs and builtin check"):
        for fname in ("normal_order_sl2_ef.txt", "normal_order_heis_yx.txt",
                      "normal_order_sl2_borel_fe.txt", "check_builtin_seed42.txt"):
            # the first run of each golden, the one with the oracle on
            code, argv = next((code, argv) for name, code, argv in GOLDEN_RUNS if name == fname)
            buf = StringIO()
            with redirect_stdout(buf):
                got = main(list(argv))
            assert got == code, argv
            assert buf.getvalue().encode("utf-8") == (GOLDEN / fname).read_bytes(), argv
