"""Every golden CLI run, once.

Each row of ``GOLDEN_RUNS`` is ``(golden file, exit code, argv)``: the
``envnorm`` command ``argv`` exits with the code and prints exactly the file
under ``tests/golden`` on stdout, and nothing on stderr. Spec paths are
absolute, so no row depends on the working directory; ``check <file>`` names
its entry by the file's stem, so the reports do not either.

``tests/test_cli.py::test_golden_run`` runs every row through
``envnorm.cli.main``. Run as a script, with no arguments,

    python tests/golden_runs.py

runs every row through the installed ``envnorm`` console script, compares
the exit code, the stdout bytes and an empty stderr, names every row that
differs and exits 1 if any does. The module imports only the standard
library, never ``envnorm``, so the script judges the installed program and
nothing else (``tests/test_reference.py`` holds it to that).
"""

import difflib
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

GOLDEN_RUNS = (
    # the builtin suite at its defaults
    ("check_builtin_seed42.txt", 0, ("check", "--builtin", "--seed", "42")),
    ("check_builtin_seed7.txt", 0, ("check", "--builtin", "--seed", "7")),
    # four-letter left words, which reach Lie rows that degree 3 does not
    ("check_builtin_seed11_cases20_deg4.txt", 0,
     ("check", "--builtin", "--seed", "11", "--cases", "20", "--max-deg", "4")),
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
    # [e,f] = 1/3*h: a table coefficient that is not an integer
    ("validate_sl2_q_third.txt", 0, ("validate", _spec("sl2_q_third.alg"))),
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
    ("straighten_sl2_fe.txt", 0, ("straighten", _spec("sl2.alg"), "--expr", "f*e")),
    ("straighten_sl2_mod2_long.txt", 0,
     ("straighten", _spec("sl2_mod2.alg"), "--expr", "f*f*h*h*e*e + 3*h*f*e")),
    # an explicit --order, the reverse of sl3's declaration order: 61 terms
    ("straighten_sl3_reversed_order.txt", 0,
     ("straighten", _spec("sl3.alg"), "--order", "H2", "H1", "E32", "E31", "E21", "E23", "E13",
      "E12", "--expr", "E12*E12*E23*E13*E21*E31*E32*E32")),
    # failed validation: exit 1, the whole report on stdout
    ("validate_sl2_bad_jacobi.txt", 1, ("validate", _spec("sl2_bad_jacobi.alg"))),
    ("validate_sl2_bad_alternating.txt", 1, ("validate", _spec("sl2_bad_alternating.alg"))),
    ("validate_sl2_bad_split.txt", 1, ("validate", _spec("sl2_bad_split.alg"))),
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
)


def row_id(name: str, argv) -> str:
    """A row's short name: its golden's stem, and ``-no-oracle`` for the
    second runs of a golden with ``--no-oracle``."""
    return name.removesuffix(".txt") + ("-no-oracle" if "--no-oracle" in argv else "")


def main() -> int:
    differ = []
    for name, code, argv in GOLDEN_RUNS:
        proc = subprocess.run(["envnorm", *argv], capture_output=True)
        want = (GOLDEN / name).read_bytes()
        if (proc.returncode, proc.stdout, proc.stderr) == (code, want, b""):
            continue
        differ.append(row_id(name, argv))
        print(f"DIFFERS {differ[-1]}: exit {proc.returncode} (want {code})")
        sys.stdout.writelines(difflib.unified_diff(
            want.decode("utf-8", "replace").splitlines(keepends=True),
            proc.stdout.decode("utf-8", "replace").splitlines(keepends=True),
            f"tests/golden/{name}", "stdout"))
        if proc.stderr:
            print("stderr:\n" + proc.stderr.decode("utf-8", "replace"), end="")
    print(f"{len(GOLDEN_RUNS) - len(differ)} of {len(GOLDEN_RUNS)} golden runs match"
          + (": " + ", ".join(differ) + " differ" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
