"""Exact reference for folded registers.

A sparse statevector over the server's key registers, built from table rows
and the oracle alone: it never reads ``Gadget``.  A basis state is a tuple of
kappa-bit register values, the base gadget's first, mapped to its complex
amplitude.  The reference applies

* a combine table as |xa>|xb>|0> -> |xa>|xb>|r>, r being the plaintext of the
  row that xa || xb opens (``decrypt_row``);
* a measurement of r: the law of r and the renormalised state for each value;
* the server's dephase, which rotates the branch whose base register holds
  the base pair's x1;
* a padded-Hadamard measurement of the whole register, by enumerating every
  outcome d.

Each check compares it with the gadget engine exactly (total variation and
amplitude error below 1e-12, as in ACCEPT-04): Pr[r] and the state after each
outcome against both outcomes of ``combine_step``, over 1-3 folds and every
phase pair mod 8; and the Hadamard law of a folded, dephased register
against ``sampler_distribution``.
"""

import cmath
import random

from cvqcsim.bits import Bits
from cvqcsim.gadget import KeyPair, combine_step, dephase, make_gadget, sampler_distribution
from cvqcsim.oracle import RandomOracle
from cvqcsim.tables import decrypt_row, make_combine_table

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


def _combine_and_measure(state, j, table, oracle, kappa) -> dict[int, tuple[float, dict]]:
    """Apply the combine table to registers 0 and j, then measure r: each
    value of r with its probability and the state it leaves."""
    with_r = {}
    for xs, a in state.items():
        hit = decrypt_row(table, ((xs[0] << kappa) | xs[j], 2 * kappa), oracle)
        assert hit is not None, "an honest branch pair opens no row"
        with_r[xs, hit[1]] = a
    out = {}
    for r in {r for _, r in with_r}:
        branch = {xs: a for (xs, rr), a in with_r.items() if rr == r}
        p = sum(abs(a) ** 2 for a in branch.values())
        out[r] = (p, {xs: a / p**0.5 for xs, a in branch.items()})
    return out


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
            law = _combine_and_measure(_tensor(st, pairs[j], phases[j]), j, table, oracle, kappa)
            outcomes = {}
            for u in (0.25, 0.75):
                r, folded = combine_step(g, gadgets[j], table, oracle, _Coin(u))
                assert r.width == kappa
                outcomes[r.value] = folded
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


def _dephase(state, x1_base: int, revealed: int) -> dict[tuple[int, ...], complex]:
    """Rotate by e^{-i revealed pi/4} every basis state whose base register is x1_base."""
    turn = cmath.exp(-1j * cmath.pi * revealed / 4)
    return {xs: a * turn if xs[0] == x1_base else a for xs, a in state.items()}


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
                ref = _hadamard_law(_dephase(state, pairs[0].x1.value, revealed), pad, oracle, kappa)
                law = sampler_distribution(dephase(g, revealed), pad, oracle, kappa)
                assert set(ref) == set(law)
                assert _tv(ref, law) < TOL
