"""Exact reference for folded registers, phase tables and the GHZ server.

A sparse statevector over the server's key registers, built from claws,
table rows and the oracle alone: it never reads ``Gadget``.  A basis state
is a tuple of kappa-bit register values, mapped to its complex amplitude.
The reference applies

* a combine table as |xa>|xb>|0> -> |xa>|xb>|r>, r being the plaintext of the
  row that xa || xb opens (``decrypt_row``);
* a Z8 phase table by phase kickback, |h>|x> -> e^{i T(h, x) pi/4}|h>|x>,
  T(h, x) being the plaintext of the row that helper key h || x opens;
* a measurement of r, or of any function of the registers: the law of the
  value and the renormalised state for each value;
* the server's dephase, which rotates the branch whose register holds its
  pair's x1;
* a padded-Hadamard measurement of the whole register, by enumerating every
  outcome d.

Each check compares it with the gadget engine exactly (total variation and
amplitude error below 1e-12, as in ACCEPT-04): Pr[r] and the state after each
outcome against both outcomes of ``combine_step``, over 1-3 folds and every
phase pair mod 8; the Hadamard law of a folded, dephased register against
``sampler_distribution``; every Z8 table against ``decrypt_branch_phases``
and ``rotate_branches``; and a branch-number round of ``GhzSession``, driven
through its hooks alone, against a GHZ register over the outputs.
"""

import cmath
import itertools
import random

from cvqcsim.adversary import HELPER, GhzSession
from cvqcsim.bits import Bits
from cvqcsim.gadget import (
    KeyPair,
    combine_step,
    decrypt_branch_phases,
    dephase,
    make_gadget,
    merge_keys,
    rotate_branches,
    sampler_distribution,
)
from cvqcsim.ntcf import eval_claw, keygen
from cvqcsim.oracle import RandomOracle
from cvqcsim.tables import decrypt_row, make_combine_table, make_phase_table

TOL = 1e-12
PHASE_PAIRS = [(t0, t1) for t0 in range(8) for t1 in range(8)]


class _Coin:
    """An rng whose every draw is `u`: ``combine_step`` keeps equal subscripts
    (r0) at u = 0.25 and crossed ones (r1) at u = 0.75."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _amp(t: int) -> complex:
    return cmath.exp(1j * cmath.pi * t / 4) / 2**0.5


def _pair(rng: random.Random, kappa: int) -> KeyPair:
    while True:
        a, b = rng.getrandbits(kappa), rng.getrandbits(kappa)
        if a != b:
            return KeyPair(Bits(a, kappa), Bits(b, kappa))


def _tensor(state, kp: KeyPair, phases) -> dict[tuple[int, ...], complex]:
    """`state` times one more register in (e^{i t0 pi/4}|x0> + e^{i t1 pi/4}|x1>)/sqrt2."""
    (t0, t1) = phases
    return {xs + (x.value,): a * _amp(t) for xs, a in state.items() for x, t in ((kp.x0, t0), (kp.x1, t1))}


def _measure(state, f) -> dict:
    """Measure the value f(basis state): each value with its probability and
    the renormalised state it leaves."""
    parts: dict = {}
    for xs, a in state.items():
        parts.setdefault(f(xs), {})[xs] = a
    out = {}
    for v, part in parts.items():
        p = sum(abs(a) ** 2 for a in part.values())
        out[v] = (p, {xs: a / p**0.5 for xs, a in part.items()})
    return out


def _combine_and_measure(state, base, j, table, oracle, kappa) -> dict[Bits, tuple[float, dict]]:
    """Apply the combine table to registers base and j, then measure r: each
    value of r with its probability and the state it leaves."""

    def r_of(xs):
        hit = decrypt_row(table, ((xs[base] << kappa) | xs[j], 2 * kappa), oracle)
        assert hit is not None, "an honest branch pair opens no row"
        return Bits(hit[1], kappa)

    return _measure(state, r_of)


def _concat(xs: tuple[int, ...], kappa: int) -> int:
    v = 0
    for x in xs:
        v = (v << kappa) | x
    return v


def _tv(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def _assert_same_state(g, state, kappa):
    """The gadget holds exactly the reference state, over the concatenated
    registers, global phase included."""
    x0, x1 = g.keys
    width = len(next(iter(state))) * kappa
    assert x0.width == x1.width == width
    ref = {_concat(xs, kappa): a for xs, a in state.items()}
    held = {x0.value: _amp(g.t0), x1.value: _amp(g.t1)}
    assert set(ref) == set(held)
    assert max(abs(ref[v] - held[v]) for v in ref) < TOL


def _fold_tree(pairs, phases, tables, oracle, kappa):
    """Fold gadgets 1..n into gadget 0 along both outcomes of every step,
    checking each step against the reference; returns every (gadget, state)
    leaf.  Register j joins the reference state when it is folded in."""
    gadgets = [make_gadget(kp, ph) for kp, ph in zip(pairs, phases)]
    leaves = [(gadgets[0], _tensor({(): 1.0 + 0j}, pairs[0], phases[0]))]
    for j, table in enumerate(tables, start=1):
        nxt = []
        for g, st in leaves:
            law = _combine_and_measure(_tensor(st, pairs[j], phases[j]), 0, j, table, oracle, kappa)
            outcomes = {}
            for u in (0.25, 0.75):
                r, folded = combine_step(g, gadgets[j], table, oracle, _Coin(u))
                outcomes[r] = folded
            assert _tv({r: p for r, (p, _) in law.items()}, {r: 0.5 for r in outcomes}) < TOL
            for r, folded in outcomes.items():
                _assert_same_state(folded, law[r][1], kappa)
                nxt.append((folded, law[r][1]))
        leaves = nxt
    return leaves


def _setup(rng, oracle, kappa, n):
    """n+1 key pairs and the n combine tables that fold registers 1..n into 0."""
    pairs = [_pair(rng, kappa) for _ in range(n + 1)]
    tables = []
    for kb in pairs[1:]:
        r0, r1 = _pair(rng, kappa)
        tables.append(make_combine_table(pairs[0], kb, (r0.value, kappa), (r1.value, kappa), kappa, oracle, rng))
    return pairs, tables


def _phase_grid(rng, n):
    """Every phase pair mod 8 of one fold (all 64 x 64 for n = 1); for n > 1,
    every pair at each position in turn, the other gadgets' pairs drawn."""
    if n == 1:
        return [[a, b] for a in PHASE_PAIRS for b in PHASE_PAIRS]
    grid = []
    for pos in range(n + 1):
        for pp in PHASE_PAIRS:
            phases = [rng.choice(PHASE_PAIRS) for _ in range(n + 1)]
            phases[pos] = pp
            grid.append(phases)
    return grid


def _dephase(state, j, x1: int, revealed: int) -> dict[tuple[int, ...], complex]:
    """Rotate by e^{-i revealed pi/4} every basis state whose register j is x1."""
    turn = cmath.exp(-1j * cmath.pi * revealed / 4)
    return {xs: a * turn if xs[j] == x1 else a for xs, a in state.items()}


def _hadamard_law(state, pad: Bits, oracle, kappa) -> dict[int, float]:
    """Pr[d] for the padded-Hadamard measurement of the whole register:
    |sum_x a_x (-1)^{d.w_x}|^2 / 2^n with w_x = x || H(pad || x)."""
    width = len(next(iter(state))) * kappa
    terms = []
    for xs, a in state.items():
        x = _concat(xs, kappa)
        h = oracle.query(((pad.value << width) | x, pad.width + width), kappa)
        terms.append(((x << kappa) | h, a))
    n = width + kappa
    law = {}
    for d in range(1 << n):
        amp = sum(a * (-1 if (d & w).bit_count() & 1 else 1) for w, a in terms)
        law[d] = abs(amp) ** 2 / (1 << n)
    return law


def test_combine_step_matches_the_reference_on_every_outcome():
    for kappa in (3, 4):
        for n in (1, 2, 3):
            rng = random.Random(f"fold-ref/{kappa}/{n}")
            oracle = RandomOracle(rng.randbytes(32))
            for i, phases in enumerate(_phase_grid(rng, n)):
                if i % 64 == 0:  # fresh keys and tables every 64 phase cases
                    pairs, tables = _setup(rng, oracle, kappa, n)
                leaves = _fold_tree(pairs, phases, tables, oracle, kappa)
                assert len(leaves) == 2**n


def test_folded_hadamard_law_matches_the_reference():
    # d spans (n + 2) * kappa bits: at most 12 here, so 2^12 outcomes per law
    for kappa, n in ((3, 1), (3, 2), (4, 1)):
        rng = random.Random(f"fold-had/{kappa}/{n}")
        oracle = RandomOracle(rng.randbytes(32))
        for t in range(8):
            pairs, tables = _setup(rng, oracle, kappa, n)
            phases = [(0, t)] + [rng.choice(PHASE_PAIRS) for _ in range(n)]
            for g, state in _fold_tree(pairs, phases, tables, oracle, kappa):
                pad = Bits(rng.getrandbits(kappa), kappa)
                revealed = rng.randrange(8)
                ref = _hadamard_law(_dephase(state, 0, pairs[0].x1.value, revealed), pad, oracle, kappa)
                law = sampler_distribution(dephase(g, revealed), pad, oracle, kappa)
                assert set(ref) == set(law)
                assert _tv(ref, law) < TOL


def _kickback(state, j, table, helper: KeyPair, oracle, kappa) -> dict[tuple[int, ...], complex]:
    """Apply a Z8 phase table to register j by phase kickback.  Both helper
    keys must open rows with the same plaintext, so the helper register
    factors out and is left as it was."""
    out = {}
    for xs, a in state.items():
        ts = set()
        for h in helper:
            hit = decrypt_row(table, ((h.value << kappa) | xs[j], 2 * kappa), oracle)
            assert hit is not None, "an honest branch pair opens no row"
            ts.add(hit[1])
        (t,) = ts
        out[xs] = a * cmath.exp(1j * cmath.pi * t / 4)
    return out


def test_phase_table_kickback_matches_decrypt_branch_phases():
    for kappa in (3, 4):
        rng = random.Random(f"phase-ref/{kappa}")
        oracle = RandomOracle(rng.randbytes(32))
        for plain in PHASE_PAIRS:
            helper, kp = _pair(rng, kappa), _pair(rng, kappa)
            table = make_phase_table(helper, kp, plain, kappa, oracle, rng)
            for start in PHASE_PAIRS:
                ref = _kickback(_tensor({(): 1.0 + 0j}, kp, start), 0, table, helper, oracle, kappa)
                g = make_gadget(kp, start)
                for held in helper:  # either helper key decrypts alike
                    turned = rotate_branches(g, *decrypt_branch_phases(g, table, held, oracle))
                    _assert_same_state(turned, ref, kappa)


# -- the GHZ server in a branch-number round ---------------------------------


class _Unscripted(Exception):
    """A draw past the end of the script; `choices` are its outcomes."""

    def __init__(self, choices):
        self.choices = choices


class _Impossible(Exception):
    """A scripted outcome of probability 0."""


class _Uniform:
    """A draw of ``random()``, scripted only as whether it falls below the
    threshold it is compared with; the comparison weighs the script's path."""

    def __init__(self, script, below):
        self.script, self.below = script, below

    def __lt__(self, p):
        self.script.weight *= p if self.below else 1 - p
        if self.script.weight == 0:
            raise _Impossible
        return self.below

    def __ge__(self, p):
        return not self < p


class _Script:
    """A server rng that plays a fixed list of draw outcomes and stops at the
    first draw the list does not cover.  An outcome of ``random()`` is whether
    it falls below its threshold; one of ``getrandbits(k)`` is its value.
    `weight` is the probability of the outcomes played."""

    def __init__(self, outcomes):
        self.outcomes, self.n, self.weight = outcomes, 0, 1.0

    def _next(self, choices):
        if self.n == len(self.outcomes):
            raise _Unscripted(choices)
        self.n += 1
        return self.outcomes[self.n - 1]

    def random(self):
        return _Uniform(self, self._next((True, False)))

    def getrandbits(self, k):
        value = self._next(range(1 << k))
        self.weight /= 1 << k
        return value


def _enumerated_law(play) -> dict:
    """The law of play(rng)'s result over every outcome path of its draws."""
    law: dict = {}
    todo = [()]
    while todo:
        outcomes = todo.pop()
        rng = _Script(outcomes)
        try:
            result = play(rng)
        except _Unscripted as more:
            todo.extend(outcomes + (c,) for c in more.choices)
            continue
        except _Impossible:
            continue
        law[result] = law.get(result, 0.0) + rng.weight
    return law


def _reference_law(state, steps) -> dict:
    """The joint law of the values that `steps` measure one after another,
    each step mapping a state to ``_measure``'s output."""
    leaves = [((), 1.0, state)]
    for step in steps:
        leaves = [(vs + (v,), p * q, after) for vs, p, st in leaves for v, (q, after) in step(st).items()]
    law: dict = {}
    for vs, p, _ in leaves:
        law[vs] = law.get(vs, 0.0) + p
    return law


def _hadamard_on(subset, pad, oracle, kappa):
    """A step that measures the registers in `subset`, concatenated in that
    order, in the padded Hadamard basis; every other register must already
    hold one value."""

    def step(state):
        rest = {tuple(x for i, x in enumerate(xs) if i not in subset) for xs in state}
        assert len(rest) == 1, "a register outside the subset is still in superposition"
        held = {tuple(xs[i] for i in subset): a for xs, a in state.items()}
        width = (len(subset) + 1) * kappa
        return {Bits(d, width): (p, None) for d, p in _hadamard_law(held, pad, oracle, kappa).items()}

    return step


class _Round:
    """One branch-number round at kappa bits over outputs 1..L: the setup
    claws of the helper, the test gadget 0 and the outputs, a phase table
    per gadget and a revealed phase per output.  Every output's residual
    relative phase is 0 but the last one's, so the register's residual is
    the sum of the outputs' and differs from the base's."""

    def __init__(self, kappa, L, rng, oracle):
        self.kappa, self.L, self.oracle = kappa, L, oracle
        self.claws = {idx: eval_claw(keygen(kappa, rng), rng) for idx in (HELPER, *range(L + 1))}
        self.pairs = {idx: KeyPair(c.x0, c.x1) for idx, c in self.claws.items()}
        self.phases = [(rng.randrange(8), rng.randrange(8)) for _ in range(L + 1)]
        self.ptables = [
            make_phase_table(self.pairs[HELPER], self.pairs[i], self.phases[i], kappa, oracle, rng)
            for i in range(L + 1)
        ]
        self.residual = 2 * L - 1
        self.reveals = {
            i: (t1 - t0 - (self.residual if i == L else 0)) % 8 for i, (t0, t1) in enumerate(self.phases) if i
        }

    def play(self, subset, tables, coin, pad):
        """The session's answers as a function of the server rng: the fold
        replies, the complement check's and the coin's."""
        base, others = subset[0], subset[1:]
        complement = [0] + [i for i in range(1, self.L + 1) if i not in subset]

        def answers(rng):
            s = GhzSession(self.oracle, rng, self.kappa)
            for idx, claw in self.claws.items():
                s.setup_block(idx, claw)
            for i, table in enumerate(self.ptables):
                s.receive_phase_table(i, table)
            for i, v in self.reveals.items():
                s.dephase_reveal(i, v)
            rs = tuple(s.respond_combine(base, j, tables[j]) for j in others)
            checked = tuple(s.respond_std(complement))
            coin_answer = s.respond_std([base])[0] if coin == "std" else s.respond_hadamard(base, pad)
            return (*rs, checked, coin_answer)

        return answers

    def reference(self, subset, tables, coin, pad) -> dict:
        """The law of the same answers read off a GHZ register: registers
        0..L are the test gadget, then the outputs as one two-branch register
        (|x0 .. x0> + |x1 .. x1>)/sqrt2."""
        kappa, L, pairs, oracle = self.kappa, self.L, self.pairs, self.oracle
        complement = [0] + [i for i in range(1, L + 1) if i not in subset]
        state = {
            (pairs[0][b0].value, *(pairs[i][b].value for i in range(1, L + 1))): 0.5 + 0j
            for b0 in (0, 1) for b in (0, 1)
        }
        for i, table in enumerate(self.ptables):
            state = _kickback(state, i, table, pairs[HELPER], oracle, kappa)
        for i, v in self.reveals.items():
            state = _dephase(state, i, pairs[i].x1.value, v)
        steps = [
            lambda st, j=j: _combine_and_measure(st, subset[0], j, tables[j], oracle, kappa) for j in subset[1:]
        ]
        steps.append(lambda st: _measure(st, lambda xs: tuple(Bits(xs[i], kappa) for i in complement)))
        if coin == "std":
            width = len(subset) * kappa
            steps.append(lambda st: _measure(st, lambda xs: Bits(_concat([xs[i] for i in subset], kappa), width)))
        else:
            steps.append(_hadamard_on(subset, pad, oracle, kappa))
        return _reference_law(state, steps)


def _marginal(law, f) -> dict:
    """The law of f(value) when the value has law `law`."""
    out: dict = {}
    for vs, p in law.items():
        out[f(vs)] = out.get(f(vs), 0.0) + p
    return out


def test_ghz_branch_number_round_matches_a_ghz_register():
    # kappa = 3: a Hadamard answer spans at most (3 + 1) * 3 bits, so every
    # path of the server's draws is enumerated, at L = 1, 2, 3 and for every
    # subset the client may fold
    kappa = 3
    for L in (1, 2, 3):
        rng = random.Random(f"ghz-ref/{L}")
        oracle = RandomOracle(rng.randbytes(32))
        rnd = _Round(kappa, L, rng, oracle)
        pairs = rnd.pairs
        for size in range(1, L + 1):
            for subset in itertools.combinations(range(1, L + 1), size):
                base, others = subset[0], subset[1:]
                outside = [i for i in range(1, L + 1) if i not in subset]
                r0s, tables = [], {}
                for j in others:
                    r0, r1 = _pair(rng, kappa)
                    r0s.append(r0)
                    tables[j] = make_combine_table(
                        pairs[base], pairs[j], (r0.value, kappa), (r1.value, kappa), kappa, oracle, rng
                    )
                folded = merge_keys(pairs[base], [(pairs[j], 0) for j in others])
                pad = Bits(rng.getrandbits(kappa), kappa)
                for coin in ("std", "had"):
                    law = _enumerated_law(rnd.play(subset, tables, coin, pad))
                    assert _tv(law, rnd.reference(subset, tables, coin, pad)) < TOL, (L, subset, coin)
                    n = len(others)
                    # every fold answers r0, with probability 1
                    assert {vs[:n] for vs in law} == {tuple(r0s)}
                    # the complement check: gadget 0 either branch, the
                    # outputs outside the subset all in one branch c
                    assert _tv(_marginal(law, lambda vs: vs[n][0]), {pairs[0].x0: 0.5, pairs[0].x1: 0.5}) < TOL
                    collapse = {tuple(pairs[i][c] for i in outside): 0.5 for c in (0, 1)}
                    assert _tv(_marginal(law, lambda vs: vs[n][1:]), collapse if outside else {(): 1.0}) < TOL
                    if coin == "std":
                        # and the coin answers the folded register's x_c
                        want = {(tuple(pairs[i][c] for i in outside), folded[c]): 0.5 for c in (0, 1)}
                        assert _tv(_marginal(law, lambda vs: (vs[n][1:], vs[-1])), want) < TOL
                        continue
                    d_law = _marginal(law, lambda vs: vs[-1])
                    width = (len(subset) + 1) * kappa
                    if outside:  # collapsed: uniform
                        assert _tv(d_law, {Bits(d, width): 2.0**-width for d in range(1 << width)}) < TOL
                    else:  # the two-branch law of the summed, dephased phases
                        t0 = sum(t for t, _ in rnd.phases[1:])
                        t1 = sum(t for _, t in rnd.phases[1:]) - sum(rnd.reveals.values())
                        assert (t1 - t0) % 8 == rnd.residual % 8
                        g = make_gadget(folded, (t0, t1))
                        want = {Bits(d, width): p for d, p in sampler_distribution(g, pad, oracle, kappa).items()}
                        assert _tv(d_law, want) < TOL
