"""Randomized/exhaustive property suite over a registry of example algebras.

Generation is deterministic: every drawn object comes from a child seed
derived (via blake2b, never Python's salted hash) from the suite seed, the
entry name, the property name and the case index, so identical configs give
byte-identical reports, regardless of process or platform.

On a failing case the driver greedily shrinks the counterexample -- dropping
terms, shortening words, zeroing coordinates -- for as long as the failure
persists, and reports the minimal instance with full inputs.
"""

from __future__ import annotations

# hashlib, random and fractions are imported in the functions that use them,
# so `import envnorm` loads none of them (tests/test_cli.py holds that).

from .envelope import (
    EnvElement,
    StateElement,
    _decoded_words,
    _encoded_words,
    _oracle_terms,
    _relator_terms,
)
from .liealg import (
    GVector,
    LieAlgebra,
    SplitDecomposition,
    _acc,
    _check_carrier,
    _cleared,
    _Record,
    validate,
)
from .normalform import (
    ActionContext,
    _lie_holds,
    _lie_table,
    _section_raw,
    check_filtration,
    check_inverse,
    check_mu_compat,
    check_right_linearity,
)
from .ring import Ring, make_ring

class SuiteConfig(_Record):
    """The suite's seed, cases per property, word degree bound and property
    selection (None: all of PROPERTY_NAMES); its defaults are
    ``envnorm check``'s."""

    __slots__ = __match_args__ = ("seed", "cases", "max_degree", "properties")

    def __init__(self, seed: int = 42, cases: int = 50, max_degree: int = 3,
                 properties: tuple[str, ...] | None = None):
        for name, value in (("seed", seed), ("cases", cases), ("max_degree", max_degree)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {type(value).__name__}")
        if cases < 1:
            raise ValueError("cases must be >= 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if properties is not None:
            if isinstance(properties, str):
                raise ValueError("properties must be a sequence of names, not a str")
            # a copy, so the caller's list cannot change the config after its checks
            properties = tuple(properties)
            if not properties:
                raise ValueError("properties must name at least one property")
            unknown = set(properties) - set(PROPERTY_NAMES)
            if unknown:
                raise ValueError(f"unknown properties: {', '.join(map(repr, sorted(unknown)))}")
            repeated = {p for p in properties if properties.count(p) > 1}
            if repeated:
                raise ValueError(f"repeated properties: {', '.join(map(repr, sorted(repeated)))}")
        super().__init__(seed, cases, max_degree, properties)


class RegistryEntry(_Record):
    """A named algebra and split of an ExampleRegistry."""

    __slots__ = __match_args__ = ("name", "algebra", "split")

    def __init__(self, name: str, algebra: LieAlgebra, split: SplitDecomposition):
        super().__init__(name, algebra, split)

    @property
    def ring(self) -> Ring:
        return self.algebra.ring


class ExampleRegistry:
    """Named (algebra, split) entries.  Like a mapping, ``in``, ``[]`` and
    iteration take the names; iteration is in insertion order."""

    def __init__(self, entries=()):
        self._entries: dict[str, RegistryEntry] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: RegistryEntry) -> None:
        if entry.name in self._entries:
            raise ValueError(f"duplicate registry entry {entry.name!r}")
        self._entries[entry.name] = entry

    def __getitem__(self, name: str) -> RegistryEntry:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self) -> tuple[RegistryEntry, ...]:
        return tuple(self._entries.values())

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)


# ---------------------------------------------------------------------------
# example algebras
# ---------------------------------------------------------------------------

def sl2_algebra(ring: Ring) -> LieAlgebra:
    """sl(2) on basis e, f, h with [e,f]=h, [h,e]=2e, [h,f]=-2f: the
    matrices of ``sl_algebra(2, ring)``, with E12, E21, H1 named e, f, h."""
    return _matrix_algebra(ring, ("e", "f", "h"), _sl_basis(2)[1])


def heisenberg_algebra(ring: Ring) -> LieAlgebra:
    """Heisenberg algebra on x, y, c with [x,y]=c and c central."""
    return LieAlgebra.from_brackets(ring, ("x", "y", "c"), {("x", "y"): {"c": 1}})


def abelian_algebra(ring: Ring) -> LieAlgebra:
    return LieAlgebra.from_brackets(ring, ("a", "b", "c"), {})


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba of sparse {(row, col): entry} matrices."""
    out: dict = {}
    for p, q, sign in ((a, b, 1), (b, a, -1)):
        for (r, k), x in p.items():
            for (k2, c), y in q.items():
                if k == k2:
                    _acc(out, (r, c), sign * x * y)
    return out


def _sl_basis(n: int):
    """Names and sparse {(row, col): entry} matrices of sl(n): strict
    uppers row-major, strict lowers row-major, then the diagonal
    differences H_k = E_kk - E_(k+1)(k+1)."""
    units = [(i, j) for i in range(n) for j in range(n) if i < j]
    units += [(i, j) for i in range(n) for j in range(n) if i > j]
    names = [f"E{i + 1}{j + 1}" for i, j in units] + [f"H{k + 1}" for k in range(n - 1)]
    mats = [{u: 1} for u in units] + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
    return names, mats


def _matrix_algebra(ring: Ring, names, mats) -> LieAlgebra:
    """The Lie algebra on the integer matrices ``mats`` under the commutator.

    A matrix's pivot is its first entry, row-major, that no later matrix
    has, so a commutator's coordinates follow by back-substitution in basis
    order.  Over Q a coordinate is the exact quotient by its pivot entry,
    an int when it is whole.  ValueError names a matrix with no pivot, and
    a commutator [a, b] that is not a combination of ``mats`` over the
    ring: a part the matrices do not span (for sl(n), a trace), or over Z
    and Z/q a coordinate that is not a whole multiple of its pivot entry,
    leaves a remainder."""
    pivots = []
    for t, m in enumerate(mats):
        own = [p for p in m if not any(p in later for later in mats[t + 1:])]
        if not own:
            raise ValueError(f"matrix {names[t]} has no pivot: "
                             "each of its entries is in a later matrix")
        pivots.append(min(own))

    exact = ring.kind == "Q"
    if exact:
        import fractions

    def coords(a: int, b: int) -> list:
        rest, out = _commutator(mats[a], mats[b]), []
        for k, (mat, p) in enumerate(zip(mats, pivots)):
            top = rest.get(p, 0)
            c = ring.coerce(fractions.Fraction(top, mat[p])) if exact else top // mat[p]
            if c:
                out.append((k, c))
                for key, x in mat.items():
                    _acc(rest, key, -c * x)
        if rest:
            kind = "a rational" if exact else "an integer"
            raise ValueError(f"[{names[a]}, {names[b]}] is not {kind} combination "
                             f"of {', '.join(names)}")
        return out

    n = len(mats)
    return LieAlgebra(ring, names, [[coords(a, b) for b in range(n)] for a in range(n)])


def sl_algebra(n: int, ring: Ring) -> LieAlgebra:
    """sl(n) with structure constants computed from matrix commutators."""
    return _matrix_algebra(ring, *_sl_basis(n))


def sl_triangular_split(algebra: LieAlgebra, n: int) -> SplitDecomposition:
    """The two-block grouping (strict uppers + diagonal) | strict lowers."""
    lowers = {k for k, m in enumerate(_sl_basis(n)[1]) if all(r > c for r, c in m)}
    return SplitDecomposition(algebra, set(range(algebra.dim)) - lowers, lowers)


def builtin_examples() -> ExampleRegistry:
    """The stock registry: sl2 over Z and Q (two different splits), sl3 over
    Z and its reductions mod 2, 3, 4, the Heisenberg algebra, and a
    3-dimensional abelian algebra with a non-contiguous partition."""
    reg = ExampleRegistry()
    ring_z = make_ring("Z")
    ring_q = make_ring("Q")

    sl2_z = sl2_algebra(ring_z)
    reg.add(RegistryEntry("sl2_Z", sl2_z, SplitDecomposition(sl2_z, (1,), (0, 2))))
    sl2_q = sl2_algebra(ring_q)
    reg.add(RegistryEntry("sl2_Q", sl2_q, SplitDecomposition(sl2_q, (0, 2), (1,))))

    sl3_z = sl_algebra(3, ring_z)
    reg.add(RegistryEntry("sl3_Z", sl3_z, sl_triangular_split(sl3_z, 3)))
    for q in (2, 3, 4):
        alg_q = sl3_z.change_ring(make_ring(f"Zmod {q}"))
        reg.add(RegistryEntry(f"sl3_Z{q}", alg_q, sl_triangular_split(alg_q, 3)))

    heis = heisenberg_algebra(ring_z)
    reg.add(RegistryEntry("heisenberg_Z", heis, SplitDecomposition(heis, (0,), (1, 2))))

    ab = abelian_algebra(ring_z)
    reg.add(RegistryEntry("abelian_Z", ab, SplitDecomposition(ab, (0, 2), (1,))))
    return reg


# ---------------------------------------------------------------------------
# deterministic generation
# ---------------------------------------------------------------------------

def _child_seed(seed: int, *parts) -> int:
    import hashlib

    text = "|".join([str(seed), *map(str, parts)])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _case_rng(cfg: SuiteConfig, entry: RegistryEntry, label: str, index: int) -> random.Random:
    """The rng of draw ``index`` for a property or generation kind ``label``."""
    import random

    return random.Random(_child_seed(cfg.seed, entry.name, label, index))


# Every integer draw reads the generator through _below, which is
# CPython's own Random._randbelow_with_getrandbits: randint(lo, hi) is
# lo + _below(rng, hi - lo + 1) and choice(seq) is seq[_below(rng, len(seq))],
# value for value and state for state.  It calls getrandbits itself because
# randint passes through three Python frames of random.py before it reaches
# getrandbits, and choice through two.  tests/test_checks.py pins the stream:
# test_below_is_the_stream_of_randrange against random.Random, and
# test_generate_draws_are_pinned and test_draws_match_a_term_by_term_reference
# on the suite's draws.

def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n) for n >= 1, drawn as ``rng.randrange(n)``
    draws it."""
    getrandbits, k = rng.getrandbits, n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_coeff(rng: random.Random, ring: Ring):
    # small coefficients on purpose: |n| <= 9, denominators <= 9
    if ring.kind == "Q" and rng.random() < 0.5:
        import fractions

        return ring.scalar(fractions.Fraction(_below(rng, 19) - 9, _below(rng, 9) + 1))
    return ring.scalar(_below(rng, 19) - 9)


def _draw_word(rng: random.Random, letters, max_degree: int) -> tuple:
    # letters is a tuple or a range: indexing draws the same stream from either
    if not letters:
        return ()
    n = len(letters)
    return tuple([letters[_below(rng, n)] for _ in range(_below(rng, max_degree + 1))])


# A draw of several terms accumulates them, in the order drawn, into one
# dict of scalars and builds one element.  As in a sum of one-term
# elements, a zero coefficient adds nothing and a repeated key adds
# through Scalar.__add__.

def _draw_vector(rng: random.Random, algebra: LieAlgebra) -> GVector:
    coords = {i: _draw_coeff(rng, algebra.ring) for i in range(algebra.dim)}
    return GVector._trusted(algebra, coords)


def _draw_env(rng: random.Random, algebra: LieAlgebra, max_degree: int) -> EnvElement:
    letters = range(algebra.dim)
    terms: dict = {}
    for _ in range(_below(rng, 3) + 1):
        w = _draw_word(rng, letters, max_degree)
        c = _draw_coeff(rng, algebra.ring)
        if c:
            _acc(terms, w, c)
    return EnvElement._trusted(algebra, terms)


def _draw_state(rng: random.Random, split: SplitDecomposition, max_degree: int) -> StateElement:
    terms: dict = {}
    for _ in range(_below(rng, 3) + 1):
        w1 = _draw_word(rng, split.part1, max_degree)
        w2 = _draw_word(rng, split.part2, max_degree)
        c = _draw_coeff(rng, split.algebra.ring)
        if c:
            _acc(terms, (w1, w2), c)
    return StateElement._trusted(split, terms)


_DRAWERS = {  # generation kind -> its draw(rng, cfg, entry)
    "word": lambda rng, cfg, entry: _draw_word(rng, range(entry.algebra.dim), cfg.max_degree),
    "vector": lambda rng, cfg, entry: _draw_vector(rng, entry.algebra),
    "state": lambda rng, cfg, entry: _draw_state(rng, entry.split, cfg.max_degree),
    "element": lambda rng, cfg, entry: _draw_env(rng, entry.algebra, cfg.max_degree),
    "part1 word": lambda rng, cfg, entry: _draw_word(rng, entry.split.part1, cfg.max_degree),
    "part2 word": lambda rng, cfg, entry: _draw_word(rng, entry.split.part2, cfg.max_degree),
}


def generate(kind: str, cfg: SuiteConfig, entry: RegistryEntry, index: int = 0):
    """Draw number ``index`` of the given kind ("word", "vector", "state",
    "element", or a word over one split part, "part1 word" or "part2 word")
    for an entry; identical (seed, kind, index) gives an identical object."""
    if kind not in _DRAWERS:
        raise ValueError(f"unknown generation kind {kind!r}")
    return _DRAWERS[kind](_case_rng(cfg, entry, kind, index), cfg, entry)


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def _word_drops(w: tuple):
    for pos in range(len(w)):
        yield w[:pos] + w[pos + 1:]


def _pair_drops(key: tuple):
    w1, w2 = key
    for shorter in _word_drops(w1):
        yield (shorter, w2)
    for shorter in _word_drops(w2):
        yield (w1, shorter)


def _no_drops(key):
    return ()


# combination type -> the keys one letter shorter than a given key (a vector's
# basis index has none, so a vector only drops terms)
_KEY_DROPS = {EnvElement: _word_drops, StateElement: _pair_drops, GVector: _no_drops}


def _moves(value):
    """Candidate strictly-smaller replacements for one instance part."""
    key_drops = _KEY_DROPS.get(type(value))
    if key_drops is not None:
        terms = value.sorted_terms()

        def without(key):
            return {k: c for k, c in value.terms.items() if k != key}

        for key, _c in terms:
            yield value._like(without(key))
        for key, c in terms:
            for shorter in key_drops(key):
                rest = without(key)
                _acc(rest, shorter, c)
                yield value._like(rest)
    elif isinstance(value, tuple):
        yield from _word_drops(value)


def shrink(instance: dict, still_fails) -> dict:
    """Greedy shrink: apply any single move that keeps the failure, repeat
    to a fixpoint (bounded)."""
    for _round in range(200):
        changed = False
        for key in sorted(instance):
            for candidate in _moves(instance[key]):
                trial = dict(instance)
                trial[key] = candidate
                if still_fails(trial):
                    instance = trial
                    changed = True
                    break
        if not changed:
            break
    return instance


_LETTER_KEYS = ("g", "h", "x", "y")  # instance keys holding basis indices


def _render_value(entry: RegistryEntry, key: str, value) -> str:
    if isinstance(value, tuple):
        names = entry.algebra.basis
        return " ".join(names[l] for l in value) if value else "1"
    if isinstance(value, int) and key in _LETTER_KEYS:
        return entry.algebra.basis[value]
    return str(value)


def _render_instance(entry: RegistryEntry, instance: dict) -> tuple[str, ...]:
    return tuple(
        f"{k} = {_render_value(entry, k, v)}" for k, v in sorted(instance.items())
    )


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class PropertyFailure(_Record):
    """A failing case: its index, its rendered description and the shrunk
    instance (a fresh ``{}`` when none is given), which ``==`` and ``hash``
    leave out."""

    __slots__ = __match_args__ = ("case", "description", "instance")

    def __init__(self, case: int, description: tuple[str, ...], instance: dict | None = None):
        super().__init__(case, description, {} if instance is None else instance)

    def _key(self) -> tuple:
        return self.case, self.description


class PropertyResult(_Record):
    """One property's counts for one registry entry, with its failures."""

    __slots__ = __match_args__ = ("entry", "name", "passed", "failed", "skipped", "failures")

    def __init__(self, entry: str, name: str, passed: int, failed: int,
                 skipped: bool = False, failures: tuple[PropertyFailure, ...] = ()):
        super().__init__(entry, name, passed, failed, skipped, failures)


def relator_variant(algebra: LieAlgebra, u: EnvElement, host: tuple, pos: int,
                    x: int, y: int, coeff) -> EnvElement:
    """u plus coeff * (the word ``host`` with the two-sided relator
    x y - y x - [x, y] spliced in at ``pos``); equal to u in the envelope.
    ``pos`` is a nonnegative int; past the end of ``host`` it means the end."""
    varied = _relator_terms(algebra, u, host, pos, x, y, coeff)[1]
    return EnvElement._trusted(algebra, _decoded_words(varied))


# A row of _PROPERTIES is (draw, holds).  draw(rng, cfg, entry) returns one
# case's instances, each a dict whose keys are the parameter names of holds;
# a case fails at its first instance for which holds(ctx, **inst) returns
# False or raises.

def _draw(**kinds):
    """A draw giving one instance, each key drawn independently, in order,
    as its generation kind."""
    def draw(rng, cfg, entry):
        return [{key: _DRAWERS[kind](rng, cfg, entry) for key, kind in kinds.items()}]
    return draw


def _draw_pairs(rng, cfg, entry):
    # exhaustive over ordered basis pairs, random over states
    s = _draw_state(rng, entry.split, cfg.max_degree)
    dim = entry.algebra.dim
    return [{"s": s, "g": i, "h": j} for i in range(dim) for j in range(dim)]


def _draw_relator(rng, cfg, entry):
    # no part-1 letters to splice relators into: the case holds vacuously
    alg, part1 = entry.algebra, entry.split.part1
    if not part1:
        return []
    host = _draw_word(rng, range(alg.dim), cfg.max_degree)
    return [{
        "u": _draw_env(rng, alg, cfg.max_degree),
        "host": host,
        "pos": _below(rng, len(host) + 1),
        "x": part1[_below(rng, len(part1))],
        "y": part1[_below(rng, len(part1))],
        "coeff": _draw_coeff(rng, alg.ring),
    }]


def _holds_oracle(ctx, u):
    (terms,) = _cleared(ctx.algebra.ring, _encoded_words(u, ctx.algebra))
    return _section_raw(ctx, terms) == _oracle_terms(ctx.split, terms)


def _holds_inverse(ctx, u, s):
    return all(check_inverse(ctx, u, s))


def _holds_lie_action(ctx, s, g, h):
    # g and h are drawn basis indices: check_lie_action on basis vectors,
    # which holds with no sum to judge when E(g, h) is empty or missing
    defects = _lie_table(ctx, s)
    return not defects.get((g, h)) or _lie_holds(ctx, ((g, 1),), ((h, 1),), defects)


def _holds_well_defined(ctx, u, host, pos, x, y, coeff):
    # one denominator for both sides
    terms, varied = _cleared(ctx.algebra.ring,
                             *_relator_terms(ctx.algebra, u, host, pos, x, y, coeff))
    return _section_raw(ctx, terms) == _section_raw(ctx, varied)


_PROPERTIES = {  # name -> (draw, holds), in report order
    "oracle": (_draw(u="element"), _holds_oracle),
    "inverse": (_draw(u="element", s="state"), _holds_inverse),
    "lie_action": (_draw_pairs, _holds_lie_action),
    "filtration": (_draw(g="vector", s="state"), check_filtration),
    "right_linearity": (_draw(g="vector", w1="part1 word", m="part2 word"),
                        check_right_linearity),
    "mu_compat": (_draw(g="vector", s="state"), check_mu_compat),
    "well_defined": (_draw_relator, _holds_well_defined),
}

PROPERTY_NAMES = ("validate",) + tuple(_PROPERTIES)


def run_property(name: str, cfg: SuiteConfig, entry: RegistryEntry,
                 ctx: ActionContext | None = None) -> PropertyResult:
    """Run a single named property for one entry.

    Every random property goes through the same loop: draw each case's
    instances, fail the case at its first failing instance, shrink that
    instance and render it with the ValueError it raises, if any.  A ``ctx``
    over another split than ``entry``'s is refused before any draw."""
    if ctx is not None:
        _check_carrier(ctx.split, entry.split, "context")
    if name == "validate":
        report = validate(entry.algebra, entry.split)
        if report.ok:
            return PropertyResult(entry.name, name, 1, 0)
        return PropertyResult(
            entry.name, name, 0, 1, failures=(PropertyFailure(0, tuple(report.lines())),)
        )
    if name not in _PROPERTIES:
        raise ValueError(f"unknown property {name!r}")
    if ctx is None:
        ctx = ActionContext(entry.algebra, entry.split, validate=False)
    draw, holds = _PROPERTIES[name]

    # a predicate that raises ValueError counts as a failing instance (keeps
    # the suite total when validation was deselected on a broken entry); a
    # RecursionError or any other error propagates, and cli.main maps it to
    # its exit code (4 for a recursion overflow)
    def fails(inst):
        try:
            return not holds(ctx, **inst)
        except ValueError:
            return True

    passed = failed = 0
    failures = []
    for k in range(cfg.cases):
        instances = draw(_case_rng(cfg, entry, name, k), cfg, entry)
        bad = next((inst for inst in instances if fails(inst)), None)
        if bad is None:
            passed += 1
            continue
        failed += 1
        small = shrink(bad, fails)
        desc = list(_render_instance(entry, small))
        try:
            holds(ctx, **small)
        except ValueError as exc:
            desc.append(f"raised {type(exc).__name__}: {exc}")
        failures.append(PropertyFailure(k, tuple(desc), small))
    return PropertyResult(entry.name, name, passed, failed, failures=tuple(failures))


# ---------------------------------------------------------------------------
# suite driver and report
# ---------------------------------------------------------------------------

class SuiteReport(_Record):
    """A suite run's config and results, ((entry name, (PropertyResult,
    ...)), ...) in registry order."""

    __slots__ = __match_args__ = ("config", "results")

    def __init__(self, config: SuiteConfig, results: tuple):
        super().__init__(config, results)

    @property
    def all_pass(self) -> bool:
        return all(r.failed == 0 for _n, rs in self.results for r in rs)

    @property
    def validation_failed(self) -> bool:
        return any(
            r.name == "validate" and r.failed for _n, rs in self.results for r in rs
        )

    def render(self) -> str:
        lines = []
        total_pass = total_fail = 0
        for entry_name, props in self.results:
            lines.append(f"== {entry_name} ==")
            entry_pass = entry_fail = 0
            for r in props:
                if r.skipped:
                    lines.append(f"  {r.name:<16} skipped (validation failed)")
                    continue
                lines.append(f"  {r.name:<16} pass={r.passed} fail={r.failed}")
                for f in r.failures:
                    tag = " (shrunk)" if f.instance else ""
                    lines.append(f"  FAIL {r.name} case={f.case}{tag}")
                    for d in f.description:
                        lines.append(f"    {d}")
                entry_pass += r.passed
                entry_fail += r.failed
            lines.append(
                f"SUITE {entry_name} pass={entry_pass} fail={entry_fail} "
                f"seed={self.config.seed}"
            )
            total_pass += entry_pass
            total_fail += entry_fail
        lines.append(
            f"TOTAL entries={len(self.results)} pass={total_pass} "
            f"fail={total_fail} seed={self.config.seed}"
        )
        return "\n".join(lines)


def run_suite(cfg: SuiteConfig, registry: ExampleRegistry) -> SuiteReport:
    """Run every selected property for every entry.

    An entry's random properties share one ActionContext.  A failed
    validation gates the entry: dependent properties are reported as
    skipped.  Other failures never abort the run."""
    results = []
    props = PROPERTY_NAMES if cfg.properties is None else cfg.properties
    for entry in registry.entries():
        per: list[PropertyResult] = []
        gated = False
        ctx = None  # one context for the entry; its memos live on the algebra
        for name in props:
            if gated:
                per.append(PropertyResult(entry.name, name, 0, 0, skipped=True))
                continue
            if ctx is None and name != "validate":
                ctx = ActionContext(entry.algebra, entry.split, validate=False)
            r = run_property(name, cfg, entry, ctx)
            per.append(r)
            if name == "validate" and r.failed:
                gated = True
        results.append((entry.name, tuple(per)))
    return SuiteReport(cfg, tuple(results))
