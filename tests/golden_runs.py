"""Every single-run CLI check, once.

Each row pins one ``envnorm`` run by its exit code, its stdout and its
stderr, in one of two shapes:

- a ``GOLDEN_RUNS`` row is ``(golden file, exit code, argv)``: the run exits
  with the code, prints exactly the file under ``tests/golden`` on stdout
  and nothing on stderr;
- an ``ERROR_RUNS`` row is ``(exit code, argv, stderr)``: the run exits with
  the code, prints nothing on stdout and exactly ``stderr`` on stderr.

Spec paths are absolute, so no row depends on the working directory;
``check <file>`` names its entry by the file's stem, so the reports do not
either.

``tests/test_cli.py::test_golden_run`` and ``test_error_run`` run every row
through ``envnorm.cli.main``. Run as a script, with no arguments,

    python tests/golden_runs.py

runs every row of both tables through the installed ``envnorm`` console
script, compares the exit code and the stdout and stderr bytes, names every
row that differs and exits 1 if any does; with no ``envnorm`` on ``PATH`` it
says so in one line and exits 2. The module imports only the
standard library, never ``envnorm``, so the script judges the installed
program and nothing else (``tests/test_reference.py`` holds it to that).
"""

import difflib
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _spec(name: str) -> str:
    return str(GOLDEN / name)


_RANDOM_PROPS = "oracle,inverse,lie_action,filtration,right_linearity,mu_compat,well_defined"
# sl2_bad_split's lie_action failures have goldens of their own
_SPLIT_PROPS = _RANDOM_PROPS.replace("lie_action,", "")
_SEED11 = ("--cases", "30", "--seed", "11")
_SL3_WORST = "E32*E21*E31*E21*E12*E13*E23*H1"
_SL4_WORST = "E43*E32*E21*E42*E31*E12*E23*E34*H1*H3"
_E16F16 = "*".join(["e"] * 16 + ["f"] * 16)
_EF2000 = "*".join(["e"] + ["f"] * 2000)
_VALID = ("heisenberg", "sl2", "sl2_borel", "sl2_mod2", "sl3", "sl4", "sl2_q_third")

GOLDEN_RUNS = (
    # the builtin suite at its defaults
    ("check_builtin_seed42.txt", 0, ("check", "--builtin", "--seed", "42")),
    ("check_builtin_seed7.txt", 0, ("check", "--builtin", "--seed", "7")),
    # four-letter left words, which reach Lie rows that degree 3 does not
    ("check_builtin_seed11_cases20_deg4.txt", 0,
     ("check", "--builtin", "--seed", "11", "--cases", "20", "--max-deg", "4")),
    # each valid algebra and split: exactly "ok", and every property passing
    # at the defaults
    *(("validate_ok.txt", 0, ("validate", _spec(f"{name}.alg"))) for name in _VALID),
    # sl3 with directive words split by NBSP and U+3000 and a comment after
    # each bracket value
    ("validate_ok.txt", 0, ("validate", _spec("sl3_blank_words.alg"))),
    *((f"check_{name}.txt", 0, ("check", _spec(f"{name}.alg"))) for name in _VALID),
    # the Q verdicts at depth, on a table with a fractional constant
    ("check_sl2_q_third_cases200_deg4.txt", 0,
     ("check", _spec("sl2_q_third.alg"), "--cases", "200", "--max-deg", "4")),
    ("normal_order_sl2_unit.txt", 0, ("normal-order", _spec("sl2.alg"), "--expr", "1")),
    ("normal_order_sl2_ef.txt", 0, ("normal-order", _spec("sl2.alg"), "--expr", "e*f")),
    ("normal_order_heis_yx.txt", 0, ("normal-order", _spec("heisenberg.alg"), "--expr", "y*x")),
    # a long thin word
    ("normal_order_heis_y300x.txt", 0,
     ("normal-order", _spec("heisenberg.alg"), "--expr", "*".join(["y"] * 300 + ["x"]))),
    # h^30 e: one coefficient per power of h (the closed form sl2_hne(30))
    ("normal_order_sl2_h30e.txt", 0,
     ("normal-order", _spec("sl2.alg"), "--expr", "*".join(["h"] * 30 + ["e"]))),
    # e^16 f^16: 137 terms (Kostant's closed form sl2_eafb(16, 16))
    ("normal_order_sl2_e16f16.txt", 0, ("normal-order", _spec("sl2.alg"), "--expr", _E16F16)),
    ("normal_order_sl2_borel_fe.txt", 0, ("normal-order", _spec("sl2_borel.alg"), "--expr", "f*e")),
    # fractional and integral Q coefficients side by side in one result
    ("normal_order_sl2_borel_mixed_q.txt", 0,
     ("normal-order", _spec("sl2_borel.alg"), "--expr", "1/2*f*f*f*e*e - 3/4*f*h*e")),
    # a leading minus needs the --expr= form
    ("normal_order_sl2_borel_minus_half_ee.txt", 0,
     ("normal-order", _spec("sl2_borel.alg"), "--expr=-1/2*e*e")),
    # a coefficient past CPython's int/str digit limit reads and prints in full
    ("normal_order_sl2_7x5000e.txt", 0,
     ("normal-order", _spec("sl2.alg"), "--expr", "7" * 5000 + "*e")),
    ("normal_order_sl2_mod2_ef.txt", 0, ("normal-order", _spec("sl2_mod2.alg"), "--expr", "e*f")),
    # [e,f] = 1/3*h: a table coefficient that is not an integer
    ("normal_order_sl2_q_third.txt", 0,
     ("normal-order", _spec("sl2_q_third.alg"), "--expr", "e*e*f*f - 1/2*h*e*f")),
    # a signed fractional coefficient, bare names and one-term factors
    # between the sums: each kind of factor the grammar gathers or joins
    ("normal_order_sl2_q_third_mixed.txt", 0,
     ("normal-order", _spec("sl2_q_third.alg"), "--expr=-3/2*e*(e - f)*h*(2*f)*(h + 1)")),
    # every part-2 letter before every part-1 letter: the left factors
    # pass through many orders on their way to canonical form
    ("normal_order_sl3_worst.txt", 0, ("normal-order", _spec("sl3.alg"), "--expr", _SL3_WORST)),
    # lowers before uppers and the diagonal last: every product of a left
    # and a right word the check straightens is uppers, diagonal, lowers
    ("normal_order_sl4_worst.txt", 0, ("normal-order", _spec("sl4.alg"), "--expr", _SL4_WORST)),
    # the calculator alone, with no oracle behind it, gives the same goldens
    ("normal_order_sl2_ef.txt", 0,
     ("normal-order", _spec("sl2.alg"), "--expr", "e*f", "--no-oracle")),
    ("normal_order_sl2_e16f16.txt", 0,
     ("normal-order", _spec("sl2.alg"), "--no-oracle", "--expr", _E16F16)),
    ("normal_order_sl3_worst.txt", 0,
     ("normal-order", _spec("sl3.alg"), "--no-oracle", "--expr", _SL3_WORST)),
    ("normal_order_sl4_worst.txt", 0,
     ("normal-order", _spec("sl4.alg"), "--no-oracle", "--expr", _SL4_WORST)),
    # e f^2000: a 2000-letter left word acts at the default recursion limit
    # (the closed form sl2_efn(2000); the oracle's straightening would not)
    ("normal_order_sl2_ef2000.txt", 0,
     ("normal-order", _spec("sl2.alg"), "--no-oracle", "--expr", _EF2000)),
    ("straighten_sl2_fe.txt", 0, ("straighten", _spec("sl2.alg"), "--expr", "f*e")),
    ("straighten_sl2_mod2_long.txt", 0,
     ("straighten", _spec("sl2_mod2.alg"), "--expr", "f*f*h*h*e*e + 3*h*f*e")),
    # an explicit --order, the reverse of sl3's declaration order: 61 terms
    ("straighten_sl3_reversed_order.txt", 0,
     ("straighten", _spec("sl3.alg"), "--order", "H2", "H1", "E32", "E31", "E21", "E23", "E13",
      "E12", "--expr", "E12*E12*E23*E13*E21*E31*E32*E32")),
    # f*e is already sorted under h < f < e
    ("straighten_sl2_fe_order_hfe.txt", 0,
     ("straighten", _spec("sl2.alg"), "--expr", "f*e", "--order", "h", "f", "e")),
    # 3 reduces to 1 mod 2 and the bracket term [h,e] = 2e vanishes
    ("straighten_sl2_mod2_3he_f.txt", 0,
     ("straighten", _spec("sl2_mod2.alg"), "--expr", "3*h*e + f")),
    # failed validation: exit 1, the whole report on stdout
    ("validate_sl2_bad_jacobi.txt", 1, ("validate", _spec("sl2_bad_jacobi.alg"))),
    ("validate_sl2_bad_alternating.txt", 1, ("validate", _spec("sl2_bad_alternating.alg"))),
    ("validate_sl2_bad_split.txt", 1, ("validate", _spec("sl2_bad_split.alg"))),
    # the validation gate of check: exit 1, every property skipped
    ("check_sl2_bad_jacobi_cases2_deg2.txt", 1,
     ("check", _spec("sl2_bad_jacobi.alg"), "--cases", "2", "--max-deg", "2")),
    # failing suites: exit 3, the shrunk report on stdout
    ("check_sl2_bad_jacobi_cases5.txt", 3,
     ("check", _spec("sl2_bad_jacobi.alg"), "--props", _RANDOM_PROPS, "--cases", "5")),
    ("check_sl2_bad_alternating_cases5.txt", 3,
     ("check", _spec("sl2_bad_alternating.alg"), "--props", _RANDOM_PROPS, "--cases", "5")),
    ("check_sl2_bad_split_cases5.txt", 3,
     ("check", _spec("sl2_bad_split.alg"), "--props", _SPLIT_PROPS, "--cases", "5")),
    ("check_sl2_bad_split_lie_action_cases5.txt", 3,
     ("check", _spec("sl2_bad_split.alg"), "--props", "lie_action", "--cases", "5")),
    # 28 failing cases, most of them raising the part check of a state
    # whose left word straightens out of part 1
    ("check_sl2_bad_split_cases30.txt", 3,
     ("check", _spec("sl2_bad_split.alg"), "--props", _SPLIT_PROPS, *_SEED11)),
    # 28 failing cases, each raising the part check on the first bad
    # letter in the order the defect rows sum their terms
    ("check_sl2_bad_split_lie_action_cases30.txt", 3,
     ("check", _spec("sl2_bad_split.alg"), "--props", "lie_action", *_SEED11)),
    # every random property, thirty cases each, on the two tables that
    # fail the Lie axioms under a closed split
    ("check_sl2_bad_jacobi_cases30.txt", 3,
     ("check", _spec("sl2_bad_jacobi.alg"), "--props", _RANDOM_PROPS, *_SEED11)),
    ("check_sl2_bad_alternating_cases30.txt", 3,
     ("check", _spec("sl2_bad_alternating.alg"), "--props", _RANDOM_PROPS, *_SEED11)),
    # thirty failing cases, each drawn and shrunk through many states whose
    # left words are all powers of f
    ("check_sl2_bad_alternating_lie_action_cases30.txt", 3,
     ("check", _spec("sl2_bad_alternating.alg"), "--props", "lie_action", *_SEED11)),
    # [e, f] = e fails Jacobi, so thirty shrunk cases judge the kernel's
    # defect rows on a table the law does not hold on
    ("check_sl2_bad_jacobi_lie_action_cases30.txt", 3,
     ("check", _spec("sl2_bad_jacobi.alg"), "--props", "lie_action", *_SEED11)),
    # four-letter left words on each failing table: the Lie-action defect
    # rows and mu_compat's per-right-word differences, straightened before
    # their right words are appended, on longer words than the runs above
    *((f"check_sl2_bad_{name}_lie_mu_cases50_deg4.txt", 3,
       ("check", _spec(f"sl2_bad_{name}.alg"), "--props", "lie_action,mu_compat",
        "--cases", "50", "--max-deg", "4"))
      for name in ("jacobi", "split", "alternating")),
)

_SL2, _BAD = _spec("sl2.alg"), _spec("sl2_bad_jacobi.alg")
# an invalid table stops normal-order and straighten with validate's report
_BAD_REPORT = (GOLDEN / "validate_sl2_bad_jacobi.txt").read_text(encoding="utf-8")
_NEEDS_ONE = "error: check needs exactly one of <file> or --builtin\n"
_NESTED = "(" * 2000 + "e" + ")" * 2000
_TOO_LARGE = "error: input too large to process (recursion limit reached)\n"

ERROR_RUNS = (
    (1, ("normal-order", _BAD, "--expr", "e*f"), _BAD_REPORT),
    (1, ("straighten", _BAD, "--expr", "e*f"), _BAD_REPORT),
    (2, ("check", _SL2, "--builtin"), _NEEDS_ONE),
    (2, ("check",), _NEEDS_ONE),
    (2, ("check", "--builtin", "--cases", "0"), "error: cases must be >= 1\n"),
    (2, ("normal-order", _SL2, "--expr", "e*("),
     "error: line 1, col 4: expected a basis name, '1' or '('\n"),
    # a bracket value that is not plain linear goes through the expression grammar
    (2, ("validate", _spec("rejected/sl2_double_minus.alg")),
     "error: line 4, col 19: expected a basis name, '1' or '('\n"),
    # ① is a digit but not a decimal one, so no denominator starts there
    (2, ("normal-order", _spec("sl2_borel.alg"), "--expr=-1/①2*e*e"),
     "error: line 1, col 4: unexpected character '①'\n"),
    (2, ("normal-order", _spec("sl2_borel.alg"), "--expr", "1/0*e"),
     "error: line 1, col 3: zero denominator\n"),
    (2, ("straighten", _SL2, "--expr", "e", "--order", "e", "f"),
     "error: --order must list every basis name exactly once\n"),
    (2, ("validate", _spec("nonexistent.alg")),
     f"error: cannot read {_spec('nonexistent.alg')}: No such file or directory\n"),
    (2, ("check", "--builtin", "--props", "bogus"), "error: unknown properties: 'bogus'\n"),
    # an empty entry of --props is an unknown property, not a skipped one
    (2, ("check", "--builtin", "--props", "oracle,"), "error: unknown properties: ''\n"),
    (2, ("check", "--builtin", "--props", ","), "error: unknown properties: ''\n"),
    (2, ("check", "--builtin", "--props", ""), "error: unknown properties: ''\n"),
    (2, ("check", "--builtin", "--props", "bogus,oracle,"),
     "error: unknown properties: '', 'bogus'\n"),
    (2, ("check", "--builtin", "--props", "oracle,oracle", "--cases", "1"),
     "error: repeated properties: 'oracle'\n"),
    (2, ("check", "--builtin", "--props", "inverse,oracle,inverse,oracle", "--cases", "1"),
     "error: repeated properties: 'inverse', 'oracle'\n"),
    # the parser's nesting bound, before Python's recursion limit
    (2, ("normal-order", _SL2, "--expr", _NESTED),
     "error: line 1, col 201: expression nested too deeply\n"),
    (2, ("straighten", _SL2, "--expr", _NESTED),
     "error: line 1, col 201: expression nested too deeply\n"),
    # words too long for the engine's recursion: exit 4, no traceback
    (4, ("normal-order", _SL2, "--expr", "e*" + "*".join(["f"] * 1000)), _TOO_LARGE),
    (4, ("straighten", _spec("heisenberg.alg"), "--expr", "y*" * 700 + "x",
         "--order", "x", "y", "c"), _TOO_LARGE),
    # a recursion overflow inside a suite property is not a counterexample:
    # seed 2 draws one 987-letter word
    (4, ("check", _spec("abelian.alg"), "--props", "oracle", "--cases", "1",
         "--max-deg", "1200", "--seed", "2"), _TOO_LARGE),
)


def _short(word: str) -> str:
    """An argv word as a row id shows it: a spec path as its file's stem, a
    word over 32 characters as its first 8 and its length."""
    if word.startswith(str(GOLDEN)):
        return Path(word).stem
    return word if len(word) <= 32 else f"{word[:8]}..{len(word)}"


def row_id(row) -> str:
    """A row's short name. A golden row's is its golden's stem, with the
    spec's stem for ``validate_ok.txt``, which every valid spec shares, and
    ``-no-oracle`` for the second runs of a golden with ``--no-oracle``. An
    error row's is its argv's words joined by ``-``, leading dashes cut."""
    if isinstance(row[0], int):
        return "-".join(_short(word).lstrip("-") for word in row[1])
    name, _code, argv = row
    stem = name.removesuffix(".txt")
    if name == "validate_ok.txt":
        stem += "-" + _short(argv[1])
    return stem + ("-no-oracle" if "--no-oracle" in argv else "")


def _pinned(row):
    """A row's argv and the ``(exit code, stdout, stderr)`` it pins, as bytes."""
    if isinstance(row[0], int):
        code, argv, err = row
        return argv, (code, b"", err.encode("utf-8"))
    name, code, argv = row
    return argv, (code, (GOLDEN / name).read_bytes(), b"")


def main() -> int:
    if shutil.which("envnorm") is None:
        print("no envnorm console script on PATH; install it with `pip install -e .`",
              file=sys.stderr)
        return 2
    rows = GOLDEN_RUNS + ERROR_RUNS
    differ = []
    for row in rows:
        argv, want = _pinned(row)
        proc = subprocess.run(["envnorm", *argv], capture_output=True)
        got = (proc.returncode, proc.stdout, proc.stderr)
        if got == want:
            continue
        differ.append(row_id(row))
        print(f"DIFFERS {differ[-1]}: exit {got[0]} (want {want[0]})")
        for stream, expected, actual in zip(("stdout", "stderr"), want[1:], got[1:]):
            sys.stdout.writelines(difflib.unified_diff(
                expected.decode("utf-8", "replace").splitlines(keepends=True),
                actual.decode("utf-8", "replace").splitlines(keepends=True),
                f"pinned {stream}", stream))
    print(f"{len(rows) - len(differ)} of {len(rows)} runs match"
          + (": " + ", ".join(differ) + " differ" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
