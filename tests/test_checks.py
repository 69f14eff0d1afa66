import copy
import hashlib
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from envnorm.checks import (
    ExampleRegistry,
    PROPERTY_NAMES,
    PropertyFailure,
    PropertyResult,
    RegistryEntry,
    SuiteConfig,
    SuiteReport,
    _PROPERTIES,
    _below,
    _case_rng,
    builtin_examples,
    heisenberg_algebra,
    _moves,
    generate,
    relator_variant,
    run_property,
    run_suite,
    sl2_algebra,
)
from envnorm.cli import AlgebraSpec, build_parser, parse_spec
from envnorm.envelope import EnvElement, StateElement
from envnorm.liealg import (
    CarrierMismatchError,
    GVector,
    LieAlgebra,
    SplitDecomposition,
    ValidationReport,
    Violation,
    validate_algebra,
    validate_split,
)
from envnorm.normalform import ActionContext, check_lie_action, section_s
from envnorm.ring import make_ring
from reference import plain, splice_relator

Z = make_ring("Z")


def _corrupted_sl2_entry():
    bad = LieAlgebra.from_brackets(
        Z, ("e", "f", "h"),
        {("e", "f"): {"e": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}},
    )
    return RegistryEntry("sl2_bad", bad, SplitDecomposition(bad, (1,), (0, 2)))


def test_builtin_registry_contents():
    reg = builtin_examples()
    assert reg.names() == (
        "sl2_Z", "sl2_Q", "sl3_Z", "sl3_Z2", "sl3_Z3", "sl3_Z4",
        "heisenberg_Z", "abelian_Z",
    )
    assert "sl3_Z4" in reg
    assert reg["sl3_Z4"].ring.descriptor() == "Zmod 4"
    for entry in reg.entries():
        assert validate_algebra(entry.algebra).ok, entry.name
        assert validate_split(entry.algebra, entry.split.part1, entry.split.part2).ok


def test_abelian_normal_order_is_sorted_factorization():
    reg = builtin_examples()
    entry = reg["abelian_Z"]
    ctx = ActionContext(entry.algebra, entry.split)
    rng = random.Random(31)
    part1 = set(entry.split.part1)
    for _ in range(50):
        word = tuple(rng.choices(range(entry.algebra.dim), k=rng.randint(0, 5)))
        got = section_s(ctx, EnvElement.word(entry.algebra, word))
        left = tuple(sorted(l for l in word if l in part1))
        right = tuple(sorted(l for l in word if l not in part1))
        assert got == StateElement.term(entry.split, left, right)


def test_generate_is_deterministic():
    reg = builtin_examples()
    cfg = SuiteConfig(seed=7, cases=5, max_degree=4)
    entry = reg["sl3_Z"]
    for kind in ("word", "vector", "state", "element"):
        a = generate(kind, cfg, entry, index=3)
        b = generate(kind, cfg, entry, index=3)
        assert a == b
        c = generate(kind, cfg, entry, index=4)
        # adjacent indices draw fresh objects (overwhelmingly)
        assert (a != c) or kind == "word"


# sha256 over "<entry> <kind> <index> <str(draw)>" lines, in the loop order
# below: the draws of `generate` at the suite defaults must never move
GENERATE_DIGEST = "355c3c4869264fdf963c67266c79f92e4424d00667fb1c410351cd4ff1366d2a"


def test_generate_draws_are_pinned():
    cfg = SuiteConfig()
    digest = hashlib.sha256()
    for entry in builtin_examples().entries():
        for kind in ("word", "vector", "state", "element"):
            for i in range(20):
                drawn = generate(kind, cfg, entry, i)
                digest.update(f"{entry.name} {kind} {i} {drawn}\n".encode("utf-8"))
    assert digest.hexdigest() == GENERATE_DIGEST
    with pytest.raises(ValueError):
        generate("bogus", cfg, builtin_examples()["sl2_Z"])


def _term_by_term_draw(kind: str, cfg: SuiteConfig, entry: RegistryEntry, index: int):
    """Draw ``index`` of ``kind`` replayed one term at a time: the child
    seed the checks module's docstring describes, every drawn term boxed as
    a one-term element and added to the draw with ``+``."""
    text = f"{cfg.seed}|{entry.name}|{kind}|{index}"
    rng = random.Random(int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"))
    algebra, split, ring = entry.algebra, entry.split, entry.ring

    def coeff():
        if ring.kind == "Q" and rng.random() < 0.5:
            return ring.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return ring.scalar(rng.randint(-9, 9))

    def word(letters):
        letters = tuple(letters)
        if not letters:
            return ()
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, cfg.max_degree)))

    if kind == "vector":
        return GVector(algebra, tuple(coeff() for _ in range(algebra.dim)))
    if kind == "element":
        out = EnvElement.zero(algebra)
        for _ in range(rng.randint(1, 3)):
            out = out + EnvElement(algebra, {word(range(algebra.dim)): coeff()})
        return out
    out = StateElement.zero(split)
    for _ in range(rng.randint(1, 3)):
        w1, w2 = word(split.part1), word(split.part2)
        out = out + StateElement(split, {(w1, w2): coeff()})
    return out


@pytest.mark.parametrize("cfg", [SuiteConfig(), SuiteConfig(max_degree=1),
                                 SuiteConfig(max_degree=0)], ids=["deg3", "deg1", "deg0"])
def test_draws_match_a_term_by_term_reference(cfg):
    # insertion order too: the digest above renders sorted terms, but the
    # order of a draw's terms decides which letter a part check names first
    for entry in builtin_examples().entries():
        for kind in ("state", "element", "vector"):
            for i in range(30):
                got = generate(kind, cfg, entry, i)
                want = _term_by_term_draw(kind, cfg, entry, i)
                assert type(got) is type(want), (entry.name, kind, i)
                assert list(got.terms.items()) == list(want.terms.items()), (entry.name, kind, i)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_below_is_the_stream_of_randrange(seed):
    # the draws read random.Random through _below: each call must give the
    # value randrange, randint or choice gives and leave the generator in
    # the state it leaves, for every n a draw can ask for and more
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 41):
        for lo in (-9, 0, 1):
            assert _below(ours, n) == theirs.randrange(n), (seed, n)
            assert ours.getstate() == theirs.getstate()
            assert lo + _below(ours, n) == theirs.randint(lo, lo + n - 1), (seed, n, lo)
            assert ours.getstate() == theirs.getstate()
            for seq in (tuple(range(lo, lo + 2 * n, 2)), range(lo, lo + n)):
                assert seq[_below(ours, len(seq))] == theirs.choice(seq), (seed, n, seq)
                assert ours.getstate() == theirs.getstate()


def test_generate_degree_bound():
    reg = builtin_examples()
    cfg = SuiteConfig(seed=8, cases=1, max_degree=3)
    entry = reg["sl2_Z"]
    for i in range(10_000):
        w = generate("word", cfg, entry, index=i)
        assert len(w) <= 3


def test_generate_vectors_span_all_coordinates():
    reg = builtin_examples()
    cfg = SuiteConfig(seed=9, cases=1, max_degree=3)
    entry = reg["sl3_Z"]
    hit = set()
    for i in range(1000):
        v = generate("vector", cfg, entry, index=i)
        hit.update(idx for idx, _c in v.support())
    assert hit == set(range(entry.algebra.dim))


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(seed=1, cases=0)
    with pytest.raises(ValueError):
        SuiteConfig(seed=1, max_degree=-1)
    with pytest.raises(ValueError):
        SuiteConfig(seed=1, properties=("nope",))
    # only None selects every property; an empty selection is an error, as in the CLI
    with pytest.raises(ValueError, match="at least one property"):
        SuiteConfig(properties=())
    with pytest.raises(ValueError, match="repeated properties: 'oracle'"):
        SuiteConfig(properties=("oracle", "validate", "oracle"))


@pytest.mark.parametrize("field", ["seed", "cases", "max_degree"])
@pytest.mark.parametrize("value", [2.5, True, "3", None])
def test_config_integer_fields_must_be_int(field, value):
    # a float, a bool or a string would otherwise build and fail (or quietly
    # count as 1) only once run_suite draws its cases
    with pytest.raises(ValueError, match=f"^{field} must be an int, not {type(value).__name__}$"):
        SuiteConfig(**{field: value})


def test_config_properties_must_be_a_sequence_of_names():
    with pytest.raises(ValueError, match="^properties must be a sequence of names, not a str$"):
        SuiteConfig(properties="oracle")
    assert SuiteConfig(properties=["oracle"]).properties == ("oracle",)


def test_config_keeps_its_own_copy_of_properties():
    # a list the caller still holds cannot change a config after its checks,
    # and a config built from a list is the one built from the tuple
    props = ["oracle"]
    cfg = SuiteConfig(seed=1, cases=1, properties=props)
    props.append("bogus")
    same = SuiteConfig(seed=1, cases=1, properties=("oracle",))
    assert cfg.properties == ("oracle",)
    assert cfg == same and hash(cfg) == hash(same)
    alg = sl2_algebra(Z)
    reg = ExampleRegistry([RegistryEntry("sl2_Z", alg, SplitDecomposition(alg, (1,), (2, 0)))])
    assert run_suite(cfg, reg).render() == run_suite(same, reg).render()


_SL2 = sl2_algebra(Z)
_HEIS = heisenberg_algebra(Z)
_VIOLATION = Violation("closure", ("e", "f"), "[e,f] has component 1*h outside part 1")

# class -> (each field, in constructor order, with a value and another value;
# how many fields come first with no default).  The value of a field with a
# default is that default.
_RECORDS = {
    Violation: ({"kind": ("jacobi", "closure"), "where": (("e", "f", "h"), ("e", "f")),
                 "detail": ("cyclic bracket sum = 1*h, expected 0", "")}, 3),
    ValidationReport: ({"violations": ((), (_VIOLATION,))}, 1),
    SuiteConfig: ({"seed": (42, 7), "cases": (50, 5), "max_degree": (3, 4),
                   "properties": (None, ("oracle",))}, 0),
    RegistryEntry: ({"name": ("sl2_Z", "heisenberg_Z"), "algebra": (_SL2, _HEIS),
                     "split": (SplitDecomposition(_SL2, (1,), (0, 2)),
                               SplitDecomposition(_HEIS, (0,), (1, 2)))}, 3),
    PropertyFailure: ({"case": (3, 4), "description": (("u = e",), ("u = f",)),
                       "instance": ({}, {"u": (0,)})}, 2),
    PropertyResult: ({"entry": ("sl2_Z", "sl2_Q"), "name": ("oracle", "inverse"),
                      "passed": (49, 50), "failed": (1, 0), "skipped": (False, True),
                      "failures": ((), (PropertyFailure(3, ("u = e",)),))}, 4),
    SuiteReport: ({"config": (SuiteConfig(), SuiteConfig(seed=7)),
                   "results": ((), (("sl2_Z", ()),))}, 2),
    AlgebraSpec: ({"ring": (Z, make_ring("Q")), "basis": (("a", "b"), ("a", "c")),
                   "brackets": ((((0, 1), ((1, 1),)),), ()), "part1": ((0,), (1,)),
                   "part2": ((1,), (0,))}, 5),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    fields, required = _RECORDS[cls]
    values = {name: value for name, (value, _other) in fields.items()}
    rec = cls(*list(values.values())[:required])
    # positional, keyword and with every default given: the same record
    assert rec == cls(*values.values()) == cls(**values)
    assert hash(rec) == hash(cls(**values))
    assert [getattr(rec, name) for name in fields] == list(values.values())
    assert cls.__match_args__ == tuple(fields)
    for name, value in list(values.items())[required:]:
        if isinstance(value, dict):  # a mutable default is the record's own
            assert getattr(rec, name) is not getattr(cls(**values), name)
    # == and hash read every field, PropertyFailure's instance excepted
    for name, (_value, other) in fields.items():
        changed = cls(**{**values, name: other})
        if (cls, name) == (PropertyFailure, "instance"):
            assert changed == rec and hash(changed) == hash(rec)
        else:
            assert changed != rec, name
    assert rec != tuple(values.values()) and rec != None  # noqa: E711
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(rec) == f"{cls.__name__}({shown})"
    for name, (_value, other) in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, other)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert [getattr(rec, name) for name in fields] == list(values.values())
    # an algebra compares by identity, so a pickled entry is judged by its repr
    assert copy.copy(rec) == rec and repr(pickle.loads(pickle.dumps(rec))) == repr(rec)


def test_registry_iterates_names_in_insertion_order():
    reg = builtin_examples()
    assert list(reg) == list(reg.names()) and len(list(reg)) == len(reg)
    assert [reg[name] for name in reg] == list(reg.entries())
    assert list(ExampleRegistry()) == []


def test_run_suite_all_pass_and_reproducible():
    reg = builtin_examples()
    cfg = SuiteConfig(seed=42, cases=5, max_degree=3)
    report = run_suite(cfg, reg)
    assert report.all_pass and not report.validation_failed
    text = report.render()
    assert f"SUITE sl2_Z pass=36 fail=0 seed=42" in text
    assert report.render() == run_suite(cfg, reg).render()  # byte identical


def test_run_suite_on_a_split_with_an_empty_part():
    # every drawn word of the empty part is empty, and with part 1 empty
    # no relator has a letter to splice in, so well_defined holds vacuously
    alg = sl2_algebra(Z)
    for part1, part2 in (((), (0, 1, 2)), ((0, 1, 2), ())):
        entry = RegistryEntry("sl2", alg, SplitDecomposition(alg, part1, part2))
        report = run_suite(SuiteConfig(cases=5), ExampleRegistry([entry]))
        assert report.render().splitlines()[-1] == "TOTAL entries=1 pass=36 fail=0 seed=42"


def test_corrupted_entry_gates_dependent_properties():
    reg = ExampleRegistry([_corrupted_sl2_entry()])
    cfg = SuiteConfig(seed=42, cases=3, max_degree=3)
    report = run_suite(cfg, reg)
    assert report.validation_failed and not report.all_pass
    _name, results = report.results[0]
    by_name = {r.name: r for r in results}
    assert by_name["validate"].failed == 1
    for prop in PROPERTY_NAMES[1:]:
        assert by_name[prop].skipped
    text = report.render()
    assert "jacobi violation" in text
    assert "skipped (validation failed)" in text


def test_shrinking_reports_minimal_still_failing_instance():
    entry = _corrupted_sl2_entry()
    cfg = SuiteConfig(seed=42, cases=3, max_degree=3, properties=("lie_action",))
    result = run_property("lie_action", cfg, entry)
    assert result.failed > 0
    ctx = ActionContext(entry.algebra, entry.split, validate=False)
    for failure in result.failures:
        inst = failure.instance
        g = entry.algebra.basis_vector(inst["g"])
        h = entry.algebra.basis_vector(inst["h"])
        assert not check_lie_action(ctx, g, h, inst["s"])  # shrink kept the failure
        # greedy shrink reached a fixpoint: every further term drop passes
        assert len(inst["s"].terms) <= 2


def test_exit_style_summary_lines_present():
    reg = builtin_examples()
    cfg = SuiteConfig(seed=5, cases=2, max_degree=2)
    text = run_suite(cfg, reg).render()
    for name in reg.names():
        assert f"SUITE {name} " in text
    assert text.strip().splitlines()[-1].startswith("TOTAL entries=8 ")


def test_suite_total_on_nonclosed_split_without_validation():
    # skipping validation on a non-closed split must report failures,
    # never crash the suite
    alg = sl2_algebra(Z)
    entry = RegistryEntry("sl2_leaky", alg, SplitDecomposition(alg, (0, 1), (2,)))
    cfg = SuiteConfig(seed=42, cases=3, max_degree=3, properties=("oracle", "inverse"))
    report = run_suite(cfg, ExampleRegistry([entry]))
    assert not report.all_pass
    assert "raised" in report.render()
    entry = _corrupted_sl2_entry()
    reg = ExampleRegistry([entry])
    with pytest.raises(ValueError):
        reg.add(entry)


def test_run_property_refuses_a_context_over_another_split():
    # a context over another entry's split, or another split of the same
    # algebra, is refused before any case is drawn or acted on
    reg = builtin_examples()
    entry = reg["sl2_Z"]
    alg, split = entry.algebra, entry.split
    for ctx in (ActionContext(reg["sl3_Z"].algebra, reg["sl3_Z"].split),
                ActionContext(alg, SplitDecomposition(alg, split.part1, split.part2))):
        for name in PROPERTY_NAMES:
            with pytest.raises(CarrierMismatchError, match="^context over a different split$"):
                run_property(name, SuiteConfig(cases=2), entry, ctx)
        assert not ctx._kernel


def test_run_property_unknown_name():
    with pytest.raises(ValueError):
        run_property("bogus", SuiteConfig(seed=1), _corrupted_sl2_entry())


def test_vector_moves_drop_one_term_in_index_order():
    alg = sl2_algebra(Z)
    v = alg.vector({"e": 3, "f": -1, "h": 2})
    assert [str(m) for m in _moves(v)] == ["-1*f + 2*h", "3*e + 2*h", "3*e + -1*f"]


def test_key_moves_merge_a_shortened_key_onto_an_existing_term():
    # a key shortened onto a term already there adds its coefficient to that
    # term's, and the term goes when they cancel
    entry = builtin_examples()["sl2_Z"]  # part 1 is f, part 2 is e, h
    alg, split = entry.algebra, entry.split
    u = EnvElement(alg, {(1, 0): 3, (1,): -3, (0,): 5})
    assert list(_moves(u))[-2:] == [  # the moves of its longest key, (1, 0)
        EnvElement(alg, {(1,): -3, (0,): 8}),  # drops its 1: merges
        EnvElement(alg, {(0,): 5}),  # drops its 0: cancels
    ]
    s = StateElement(split, {((1,), (0,)): 2, ((), (0,)): -2, ((1,), ()): 4})
    assert list(_moves(s))[-2:] == [  # the moves of (f, e)
        StateElement(split, {((1,), ()): 4}),  # drops its f: cancels
        StateElement(split, {((), (0,)): -2, ((1,), ()): 6}),  # drops its e: merges
    ]


def test_default_config_is_the_cli_check():
    # SuiteConfig's defaults are `envnorm check`'s: the same cases, the same report
    golden = Path(__file__).parent / "golden"
    text = run_suite(SuiteConfig(), builtin_examples()).render() + "\n"
    assert text == (golden / "check_builtin_seed42.txt").read_text(encoding="utf-8")
    args, cfg = build_parser().parse_args(["check", "--builtin"]), SuiteConfig()
    assert (args.seed, args.cases, args.max_deg, args.props) == (42, 50, 3, None)
    assert (cfg.seed, cfg.cases, cfg.max_degree, cfg.properties) == (42, 50, 3, None)
    # the builtin report passes at any degree; a failure report shows the draws
    algebra, split = parse_spec((golden / "sl2_bad_jacobi.alg").read_text(encoding="utf-8")).build()
    props = tuple(p for p in PROPERTY_NAMES if p != "validate")
    cfg = SuiteConfig(cases=5, properties=props)
    report = run_suite(cfg, ExampleRegistry([RegistryEntry("sl2_bad_jacobi", algebra, split)]))
    expected = (golden / "check_sl2_bad_jacobi_cases5.txt").read_text(encoding="utf-8")
    assert report.render() + "\n" == expected


def test_run_suite_uses_one_context_per_entry(monkeypatch):
    import envnorm.checks as checks
    built = []

    class CountingContext(ActionContext):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(checks, "ActionContext", CountingContext)
    reg = builtin_examples()
    run_suite(SuiteConfig(cases=1), reg)
    assert len(built) == len(reg) == 8


def test_relator_variant_matches_word_by_word_splice():
    golden = Path(__file__).parent / "golden"
    entries = list(builtin_examples().entries())
    # an algebra with [x, x] != 0: the relator is -[x, x] there, not zero
    algebra, split = parse_spec(
        (golden / "sl2_bad_alternating.alg").read_text(encoding="utf-8")).build()
    entries.append(RegistryEntry("sl2_bad_alternating", algebra, split))
    cfg = SuiteConfig(max_degree=4)
    for entry in entries:
        alg = entry.algebra
        rng = random.Random(entry.name)
        for i in range(40):
            u = generate("element", cfg, entry, i)
            host = generate("word", cfg, entry, i)
            pos = rng.randint(0, len(host) + 1)  # past the end clamps to the end
            x, y = rng.randrange(alg.dim), rng.randrange(alg.dim)
            if i % 5 == 0:
                y = x
            coeff = alg.ring.coerce(rng.randint(-9, 9))
            expected = splice_relator(alg.table, alg.ring.modulus, plain(u), host, pos, x, y, coeff)
            assert plain(relator_variant(alg, u, host, pos, x, y, coeff)) == expected, (entry.name, i)


def test_relator_variant_rejections():
    # it checks x and y, then host, then pos, then coeff, then u's algebra;
    # with two faults the earlier check speaks
    alg = builtin_examples()["sl2_Z"].algebra
    u, other = EnvElement.word(alg, (1, 0), 2), EnvElement.word(sl2_algebra(Z), (1, 0), 2)
    half = Fraction(1, 2)
    letter = (ValueError, "letter 9 outside basis")
    cases = [
        ((u, (0, 2), 1, 9, 1, 3), letter),
        ((u, (0, 2), 1, 0, 9, 3), letter),
        ((u, (0, 9), 1, 0, 1, 3), letter),
        ((u, (9, 2), 1, 0, 1, 3), letter),
        ((u, (0, 2), 1, 0, 1, half), (ValueError, "1/2 is not an element of Z")),
        ((other, (0, 2), 1, 0, 1, 3), (CarrierMismatchError, "element over a different algebra")),
        ((other, (9,), 1, 9, 1, half), letter),
        ((other, (9, 2), 1, 0, 1, half), letter),
        ((other, (0, 2), 1, 0, 1, half), (ValueError, "1/2 is not an element of Z")),
        ((u, (0, 2), -1, 0, 1, 3), (ValueError, "pos -1 is not a nonnegative int")),
        ((u, (0, 2), True, 0, 1, 3), (ValueError, "pos True is not a nonnegative int")),
        ((u, (0, 2), 0.5, 0, 1, 3), (ValueError, "pos 0.5 is not a nonnegative int")),
        ((u, (0, 2), "1", 0, 1, 3), (ValueError, "pos '1' is not a nonnegative int")),
        ((u, (0, 9), -1, 0, 1, 3), letter),
        ((other, (0, 2), -1, 0, 1, half), (ValueError, "pos -1 is not a nonnegative int")),
    ]
    for args, (kind, message) in cases:
        with pytest.raises(kind) as exc:
            relator_variant(alg, *args)
        assert str(exc.value) == message, args
    assert relator_variant(alg, u, (0, 2), 1, 0, 1, 3) == u + EnvElement(
        alg, {(0, 0, 1, 2): 3, (0, 1, 0, 2): -3, (0, 2, 2): -3})


def test_q_verdicts_run_on_integers(monkeypatch):
    # each verdict clears each drawn argument's denominators once and runs
    # on ints: only the relator splice, at most one multiplication per
    # relator term, touches a Fraction (before clearing, oracle to
    # well_defined but lie_action: 118, 366, 240, 188, 793 and 769).
    # lie_action does none either: a valid table's defect rows are empty
    entry = builtin_examples()["sl2_Q"]
    cfg = SuiteConfig()
    cases = {name: [inst for k in range(20)
                    for inst in draw(_case_rng(cfg, entry, name, k), cfg, entry)]
             for name, (draw, _holds) in _PROPERTIES.items()}
    count = [0]
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        def counted(*args, _f=getattr(Fraction, op)):
            count[0] += 1
            return _f(*args)
        monkeypatch.setattr(Fraction, op, counted)
    assert Fraction(1, 2) * 2 == 1 and count == [1]  # the counter counts
    ctx = ActionContext(entry.algebra, entry.split, validate=False)
    counts = {}
    for name, (_draw, holds) in _PROPERTIES.items():
        count[0] = 0
        assert all(holds(ctx, **inst) for inst in cases[name]), name
        counts[name] = count[0]
    splice = sum((inst["x"] != inst["y"]) * 2 + len(entry.algebra.table[inst["x"]][inst["y"]])
                 for inst in cases["well_defined"])
    assert 0 < counts["well_defined"] <= splice, (counts, splice)
    assert dict(counts, well_defined=0) == dict.fromkeys(counts, 0), counts
