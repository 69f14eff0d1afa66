"""The three workloads, one round at a time.

A round runs in a process of its own, so it starts with envnorm's
module-level caches empty: ``run_round`` imports envnorm, builds what a user
builds once per process (timed as set-up), then runs the round's operations
one after another and checks every output with :mod:`verify`, outside the
timed part.  The round's inputs come from ``(workload, seed, round index)``
alone; the costliest ones do not depend on the seed (see below).

* ``suite``: what ``envnorm check --builtin`` runs -- every property of every
  ``builtin_examples()`` entry at the CLI defaults -- one timed
  ``run_property`` call at a time.
* ``degree_sweep``: ``normal_order(check=True)`` on worst-order words (part-2
  letters, then part-1 letters) on sl3 and sl4 over Z and the sl3 words
  again over Z/4.
* ``request_stream``: CLI-shaped requests, each parsing, building and
  validating its algebra cold before normal-ordering or straightening.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import random
import resource
import signal
import time
from fractions import Fraction

import verify
from verify import Ring

WORKLOADS = ("suite", "degree_sweep", "request_stream")
ROUNDS = 1  # distinct rounds in one pass; every run attempts whole passes
# seconds one pass takes on the reference machine, slow spells included;
# a run of --seconds makes about --seconds / this many passes
NOMINAL_PASS_S = {"suite": 10, "degree_sweep": 4.5, "request_stream": 7.5}

FULL = {
    "suite": {"cases": 50, "max_degree": 3},
    # {degree: words per round}; the sl3 words run over Z and again over Z/4.
    # The median falls among the degree-10 words, the 90th percentile among
    # the degree-12 ones.
    "degree_sweep": {"sl3": {8: 4, 10: 4, 12: 2}, "sl4": {8: 3, 10: 3, 12: 1}},
    "request_stream": {
        "short_normal_order": 38,
        "short_straighten": 19,
        "sl4": 2,
        # (count per round, lo, hi): the long words, the sl4 requests and the
        # deep straighten are all slower than any short request and make up a
        # seventh of the requests, so the 90th percentile is always the same
        # one of them
        "heisenberg_yx": (3, 150, 300),
        "sl2_efn": (4, 45, 80),
    },
}
SMALL = {
    "suite": {"cases": 2, "max_degree": 2},
    "degree_sweep": {"sl3": {4: 1, 6: 1}, "sl4": {4: 1, 6: 1}},
    "request_stream": {
        "short_normal_order": 8,
        "short_straighten": 4,
        "sl4": 2,
        "heisenberg_yx": (2, 5, 20),
        "sl2_efn": (2, 2, 10),
    },
}
# the suite runs at the CLI's default seed, as `envnorm check --builtin` does,
# whatever the run's seed: drawing it moved the suite's time by a sixth and
# its per-entry times by half from seed to seed
SUITE_SEED = 42

# degree-sweep words of this degree and above are drawn from a fixed seed,
# not from the run's: a word's cost varies by half with the draw, which no
# affordable number of words per run would average out, and these words
# carry the round's time, its median and its slow tail
FIXED_DEGREE = 10

# heisenberg y^n x straightened: recurses once per rewrite and exceeds the
# interpreter's recursion limit today; one per round, on a fixed input
DEEP_STRAIGHTEN_N = 700

Z, Q = Ring("Z"), Ring("Q")


def _stream_algebras():
    return {
        "sl2_Z": verify.sl2_algebra(Z, ("f",), ("h", "e"), "sl2_Z"),
        "sl2_borel_Q": verify.sl2_algebra(Q, ("e", "h"), ("f",), "sl2_borel_Q"),
        "sl2_Z2": verify.sl2_algebra(Ring("Zmod", 2), ("f",), ("h", "e"), "sl2_Z2"),
        "heisenberg_Z": verify.heisenberg_algebra(Z),
        "sl3_Z": verify.sl_algebra(3, Z),
        "sl3_Q": verify.sl_algebra(3, Q),
        "sl3_Z4": verify.sl_algebra(3, Ring("Zmod", 4)),
        "sl4_Z": verify.sl_algebra(4, Z),
    }


# short requests cycle through these; the sl3 algebras come twice, so that the
# median request is an sl3 one and sits inside a cluster of similar requests
SHORT_ALGEBRAS = ("sl2_Z", "sl2_borel_Q", "sl2_Z2", "heisenberg_Z",
                  "sl3_Z", "sl3_Z", "sl3_Q", "sl3_Q", "sl3_Z4", "sl3_Z4")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

# loop iterations in one calibration sample (see Clock.sample), and the CPU
# seconds it takes on the reference machine when nothing else runs on its core
SAMPLE_LOOPS = 400
NOMINAL_SAMPLE_S = 0.0003
# CPU seconds between two samples taken while a block runs
SAMPLE_INTERVAL_S = 0.01

_thread_time = time.thread_time
_perf_counter = time.perf_counter


class _Round:
    """Timing, failure and check bookkeeping for one round."""

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        # [timed block, failed, weight, group] per operation, in order; the
        # operations of one group make one latency sample
        self.ops: list = []
        self.correct = True
        self.problems: list = []
        self.errors: dict = {}

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def run(self, label, op, check, weight=1, group=None):
        """Time ``op()``, then check its output outside the timed part.

        ``weight`` is the number of counted operations the call stands for;
        ``check`` returns (problems, failed count).  An exception or a failed
        check fails all of them; a failed check also marks the round
        incorrect."""
        failed, out = 0, None
        with self.clock.block() as block:
            try:
                out = op()
            except Exception as exc:  # recorded per type; the round goes on
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                failed = weight
        if not failed:
            try:
                problems, failed = check(out)
            except (ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.correct = False
                self.problems.extend(f"{label}: {p}" for p in problems[:3])
                failed = weight
        self.ops.append([block, failed, weight, group])


class _Block:
    start = wall = cpu = seconds = 0.0
    first = last = 0  # indices of its samples in Clock.samples


class Clock:
    """Times blocks of a round in wall seconds and in calibrated seconds.

    The machine is shared, and its neighbours slow every instruction it runs
    by up to half or more, in swings that come and go within tens of
    milliseconds, and at times take its cores away.  So a *calibration
    sample* -- a fixed piece of pure-Python work that shares no code with
    envnorm -- is timed right before and right after every block and, from a
    SIGPROF timer, every SAMPLE_INTERVAL_S of CPU time while the round runs.
    Each sample gives the machine's speed at that moment as NOMINAL_SAMPLE_S
    over its CPU time.  When the round has ended, :meth:`finish` sets each
    block's ``seconds`` to the integral of that speed over the block's CPU
    time (less the samples taken inside it), by the trapezoid rule between
    consecutive samples: how long the block would have taken on a core of
    its own at the machine's reference speed.  CPU time leaves out the time
    the process waited for a core; the samples divide out how much its
    neighbours slowed the core it ran on."""

    def __init__(self):
        # (program CPU seconds when taken, CPU seconds the sample took)
        self.samples: list = []
        self.spent = 0.0  # CPU seconds spent sampling
        self.blocks: list = []

    def sample(self, signum=None, frame=None):
        """Take one calibration sample: tuples as dict keys, small-int
        arithmetic and dict updates, the kinds of work envnorm's inner loops
        do, with the garbage collector off so that no collection of the
        program's objects lands in it.  This is also the SIGPROF handler, so
        it calls no Python function: it adds a single frame to the stack of
        whatever it interrupts."""
        enabled = gc.isenabled()
        gc.disable()
        start = _thread_time()
        acc = {}
        for i in range(SAMPLE_LOOPS):
            w = (i % 5, i % 7, i % 3)
            key = w[1:] + w[:1]
            v = acc.get(key, 0) + (i % 11 - 5) * (i % 4 + 1)
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
        sorted(acc.items())
        spent = _thread_time() - start
        if enabled:
            gc.enable()
        self.samples.append((start - self.spent, spent))
        self.spent += spent

    def start(self):
        for _ in range(3):  # warm-up, not used
            self.sample()
        self.samples.clear()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @contextlib.contextmanager
    def block(self):
        block = _Block()
        self.sample()
        block.first = len(self.samples) - 1
        spent = self.spent
        block.start, cpu_start = _perf_counter(), _thread_time()
        try:
            yield block
        finally:
            block.cpu = _thread_time() - cpu_start - (self.spent - spent)
            block.wall = _perf_counter() - block.start - (self.spent - spent)
            self.sample()
            block.last = len(self.samples) - 1
            self.blocks.append(block)

    def finish(self):
        for block in self.blocks:
            points = self.samples[block.first:block.last + 1]
            work = 0.0
            for (cpu0, spent0), (cpu1, spent1) in zip(points, points[1:]):
                work += (cpu1 - cpu0) * (1 / spent0 + 1 / spent1) / 2
            block.seconds = work * NOMINAL_SAMPLE_S


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _suite_setup(env, sizes):
    return {"registry": env.checks.builtin_examples()}


def _suite_round(env, state, sizes, rng, rec, index):
    # each property of each entry is one timed call, made exactly as run_suite
    # makes it: in registry order, with one ActionContext per entry
    checks = env.checks
    cfg = checks.SuiteConfig(seed=SUITE_SEED, cases=sizes["cases"],
                             max_degree=sizes["max_degree"])
    entries = state["registry"].entries()
    report = []
    for entry in entries:
        results = []
        ctx = None

        def call(name, entry=entry):
            nonlocal ctx
            with rec.span(f"checks.{name}"):
                if name != "validate" and ctx is None:
                    ctx = env.normalform.ActionContext(entry.algebra, entry.split, validate=False)
                return checks.run_property(name, cfg, entry, ctx)

        def check(result):
            results.append(result)
            return [], result.failed

        for name in checks.PROPERTY_NAMES:
            weight = 1 if name == "validate" else cfg.cases
            rec.run(f"{entry.name} {name}", lambda name=name: call(name), check, weight,
                    group=entry.name)
        if len(results) == len(checks.PROPERTY_NAMES):
            report.append((entry.name, tuple(results)))
    # the report of the entries whose property runs all returned; a run that
    # raised is already counted as failed
    text = checks.SuiteReport(cfg, tuple(report)).render()
    problems, _failed = verify.check_suite_report(
        text, [name for name, _results in report], checks.PROPERTY_NAMES, cfg.cases, cfg.seed)
    if problems:
        rec.correct = False
        rec.problems.extend(problems)
    return {"render_sha": hashlib.sha256(text.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# degree sweep
# ---------------------------------------------------------------------------

def _balanced(rng, letters, k):
    """k letters using each of ``letters`` floor(k/m) or ceil(k/m) times, in
    seeded order.  A word's cost depends mostly on its letter counts and on
    the order of its part-2 half, so the sweep draws balanced halves and puts
    the part-1 half in declaration order: this keeps the cost of a round
    steady from seed to seed."""
    pool = []
    while len(pool) < k:
        block = list(letters)
        rng.shuffle(block)
        pool += block
    word = pool[:k]
    rng.shuffle(word)
    return tuple(word)


def _sweep_setup(env, sizes):
    ring = env.ring.make_ring
    groups = []
    for n in (3, 4):
        algebra = env.checks.sl_algebra(n, ring("Z"))
        variants = [(algebra, Z)]
        if n == 3:
            variants.append((algebra.change_ring(ring("Zmod 4")), Ring("Zmod", 4)))
        for alg, bench_ring in variants:
            ctx = env.normalform.ActionContext(alg, env.checks.sl_triangular_split(alg, n))
            groups.append((n, ctx, verify.sl_algebra(n, bench_ring)))
    return {"groups": groups}


def _sweep_round(env, state, sizes, rng, rec, index):
    fixed = random.Random(f"degree_sweep:fixed:{index}")
    words = {}
    for n in (3, 4):
        bench = verify.sl_algebra(n, Z)
        words[n] = []
        for d, count in sorted(sizes[f"sl{n}"].items()):
            draw = fixed if d >= FIXED_DEGREE else rng
            for _ in range(count):
                words[n].append(_balanced(draw, bench.part2, d // 2)
                                + tuple(sorted(_balanced(draw, bench.part1, d // 2))))
    for n, ctx, bench in state["groups"]:
        alg = ctx.algebra
        to_bench = [bench.index[name] for name in alg.basis]
        for word in words[n]:
            letters = [alg.index[bench.basis[i]] for i in word]
            u = env.envelope.EnvElement.word(alg, letters)

            def check(result, word=word):
                out = {(tuple(to_bench[i] for i in w1), tuple(to_bench[i] for i in w2)): c
                       for (w1, w2), c in verify.state_terms(result).items()}
                return verify.check_normal_order(bench, {word: 1}, out), 0

            label = f"{bench.name} {' '.join(bench.basis[i] for i in word)}"
            rec.run(label, lambda u=u, ctx=ctx: env.normalform.normal_order(ctx, u, check=True), check)
    return {}


# ---------------------------------------------------------------------------
# request stream
# ---------------------------------------------------------------------------

def _coeff(rng, ring: Ring):
    c = rng.choice([k for k in range(-9, 10) if k])
    if ring.kind == "Q" and rng.random() < 0.3:
        c = Fraction(c, rng.randint(2, 9))
    return c


def _short_expr(rng, alg: verify.Algebra):
    """A short seeded sum of scaled products, as (text, {word: coeff})."""
    names = alg.basis
    texts, pairs = [], []
    for t in range(rng.randint(1, 3)):
        coeff = _coeff(rng, alg.ring)
        factors, expansion = [], {(): 1}
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.1:
                a, b = rng.sample(range(alg.dim), 2)
                sign = rng.choice((1, -1))
                factors.append(f"({names[a]} {'+' if sign > 0 else '-'} {names[b]})")
                part = {(a,): 1, (b,): sign}
            elif roll < 0.15:
                factors.append("1")
                part = {(): 1}
            else:
                a = rng.randrange(alg.dim)
                factors.append(names[a])
                part = {(a,): 1}
            expansion = {w + v: c * d for w, c in expansion.items() for v, d in part.items()}
        mag = abs(coeff)
        body = f"{mag}*{'*'.join(factors)}"
        if t == 0:
            texts.append(("-" if coeff < 0 else "") + body)
        else:
            texts.append(("- " if coeff < 0 else "+ ") + body)
        pairs += [(w, coeff * c) for w, c in expansion.items()]
    return " ".join(texts), verify.combine(alg.ring, pairs)


def _grid(count, lo, hi, index):
    """Round ``index``'s share of ``count * ROUNDS`` evenly spaced integers in
    [lo, hi).  The long words' lengths are fixed, not drawn: their cost grows
    like n**3, and the slow tail of the latency distribution, where the 90th
    percentile sits, should be the same for every seed."""
    strata = count * ROUNDS
    return [lo + int((hi - lo) * (i * ROUNDS + index % ROUNDS + 0.5) / strata)
            for i in range(count)]


def _stream_requests(rng, sizes, index, algebras):
    """The round's requests, in seeded order, as (kind, algebra name,
    expression text, input {word: coeff}, extra): the order for
    ``straighten``, n for the closed-form kinds, None otherwise."""
    reqs = []
    short = list(SHORT_ALGEBRAS)
    for kind in ("normal_order", "straighten"):
        for k in range(sizes[f"short_{kind}"]):
            if k % len(short) == 0:
                rng.shuffle(short)
            reqs.append((kind, short[k % len(short)]))
    reqs += [("normal_order", "sl4_Z"), ("straighten", "sl4_Z")][:sizes["sl4"]]
    out = []
    for kind, name in reqs:
        alg = algebras[name]
        text, inp = _short_expr(rng, alg)
        order = None
        if kind == "straighten":
            order = list(range(alg.dim))
            rng.shuffle(order)
        out.append((kind, name, text, inp, order))
    heis, sl2 = algebras["heisenberg_Z"].index, algebras["sl2_Z"].index
    for n in _grid(*sizes["heisenberg_yx"], index):
        out.append(("heisenberg_yx", "heisenberg_Z", "*".join(["y"] * n + ["x"]),
                    {(heis["y"],) * n + (heis["x"],): 1}, n))
    for n in _grid(*sizes["sl2_efn"], index):
        out.append(("sl2_efn", "sl2_Z", "*".join(["e"] + ["f"] * n),
                    {(sl2["e"],) + (sl2["f"],) * n: 1}, n))
    n = DEEP_STRAIGHTEN_N
    out.append(("straighten", "heisenberg_Z", "*".join(["y"] * n + ["x"]),
                {(heis["y"],) * n + (heis["x"],): 1}, [heis["x"], heis["y"], heis["c"]]))
    rng.shuffle(out)
    return out


def _stream_setup(env, sizes):
    return {}


def _stream_round(env, state, sizes, rng, rec, index):
    cli, liealg, normalform, envelope = env.cli, env.liealg, env.normalform, env.envelope
    algebras = _stream_algebras()
    specs = {name: alg.spec_text() for name, alg in algebras.items()}

    def handle(kind, spec_text, expr, order):
        # what `envnorm normal-order` / `envnorm straighten` do, minus file I/O
        algebra, split = cli.parse_spec(spec_text).build()
        report = liealg.validate_algebra(algebra)
        report2 = liealg.validate_split(algebra, split.part1, split.part2)
        if not (report.ok and report2.ok):
            raise ValueError(f"algebra rejected: {report} {report2}")
        u = cli.parse_expr(expr, algebra)
        if kind == "straighten":
            result = envelope.straighten(u, order)
            with rec.span("cli.render"):
                return str(result)
        ctx = normalform.ActionContext(algebra, split, validate=False)
        result = normalform.normal_order(ctx, u, check=True)
        with rec.span("cli.render"):
            return cli.state_lines(result)

    for kind, name, expr, inp, extra in _stream_requests(rng, sizes, index, algebras):
        alg = algebras[name]
        if kind == "straighten":
            def check(text, alg=alg, inp=inp, order=extra):
                return verify.check_straighten(alg, inp, verify.parse_word_sum(alg, text), order), 0
            op = lambda name=name, expr=expr, order=extra: handle("straighten", specs[name], expr, order)
        else:
            closed = None
            if kind == "heisenberg_yx":
                closed = verify.heisenberg_yx(alg, extra)
            elif kind == "sl2_efn":
                closed = verify.sl2_efn(alg, extra)

            def check(lines, alg=alg, inp=inp, closed=closed):
                out = verify.parse_state_lines(alg, lines)
                problems = verify.check_normal_order(alg, inp, out)
                if closed is not None:
                    problems += verify.check_closed_form(closed, out)
                return problems, 0
            op = lambda name=name, expr=expr: handle("normal_order", specs[name], expr, None)
        rec.run(f"{kind} {name} {expr[:40]}", op, check)
    return {}


# ---------------------------------------------------------------------------
# running a round
# ---------------------------------------------------------------------------

class _Env:
    """The envnorm modules, imported when the round starts."""

    def __init__(self):
        for name in ("ring", "liealg", "envelope", "normalform", "checks", "cli"):
            setattr(self, name, importlib.import_module(f"envnorm.{name}"))


# workload -> (set-up, round)
RUNNERS = {
    "suite": (_suite_setup, _suite_round),
    "degree_sweep": (_sweep_setup, _sweep_round),
    "request_stream": (_stream_setup, _stream_round),
}


def run_round(workload: str, seed: int, index: int, small: bool, tracer=None) -> dict:
    """Run round ``index`` of ``workload`` in this (fresh) process."""
    sizes = (SMALL if small else FULL)[workload]
    setup, round_ = RUNNERS[workload]
    clock = Clock()
    clock.start()
    with clock.block() as setup_time:
        env = _Env()
        state = setup(env, sizes)
    if tracer is not None:
        tracer.install()
    rec = _Round(tracer, clock)
    extra = round_(env, state, sizes, random.Random(f"{workload}:{seed}:{index}"), rec, index)
    if tracer is not None:
        tracer.remove()
    clock.stop()
    clock.finish()
    # [calibrated seconds, failed, weight, group, wall seconds] per operation
    ops = [[block.seconds, failed, weight, group, block.wall]
           for block, failed, weight, group in rec.ops]
    return {
        "workload": workload,
        "index": index,
        "setup_s": setup_time.seconds,
        "setup_wall_s": setup_time.wall,
        "round_s": sum(op[0] for op in ops),
        "round_wall_s": sum(op[4] for op in ops),
        "ops": ops,
        "attempted": sum(op[2] for op in ops),
        "failed": sum(op[1] for op in ops),
        "correct": rec.correct,
        "problems": rec.problems[:10],
        "errors": rec.errors,
        "rss_mb": _rss_mb(),
        **extra,
    }
