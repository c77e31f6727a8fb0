import cmath
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqcsim.gadget as gadget
from cvqcsim.adversary import HELPER, ConjugateSession, ServerSession
from cvqcsim.bits import Bits
from cvqcsim.gadget import (
    COS2_TABLE,
    ROOT8,
    Gadget,
    KeyPair,
    PlusStateVector,
    TableMismatch,
    branch_words,
    combine_step,
    decode_output,
    decrypt_branch_phases,
    dephase,
    enumerate_hadamard_distribution,
    fidelity_ideal,
    hadamard_sample,
    make_gadget,
    merge_keys,
    parity_probs,
    rotate_branches,
    sampler_distribution,
    std_sample,
)
from cvqcsim.oracle import RandomOracle
from cvqcsim.tables import make_combine_table, make_phase_table

SEED = bytes(range(32))


def _pair(rng, kappa):
    while True:
        a, b = Bits(rng.getrandbits(kappa), kappa), Bits(rng.getrandbits(kappa), kappa)
        if a != b:
            return KeyPair(a, b)


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


class TestRoot8:
    def test_unit_circle(self):
        for k, z in enumerate(ROOT8):
            assert abs(abs(z) - 1) < 1e-15
            assert cmath.isclose(z, cmath.exp(1j * k * cmath.pi / 4), abs_tol=1e-15)

    def test_conjugation_closure(self):
        for k in range(8):
            assert ROOT8[k].conjugate() == ROOT8[(8 - k) % 8]


class TestMakeGadget:
    def test_flat_pair(self):
        g = make_gadget(_pair(random.Random(0), 8), (0, 0))
        assert g.t0 == g.t1 == 0

    def test_antipodal(self):
        g = make_gadget(_pair(random.Random(1), 8), (0, 4))
        assert ROOT8[g.t1] == -ROOT8[g.t0]

    def test_relative_phase_two_is_i(self):
        g = make_gadget(_pair(random.Random(2), 8), (1, 3))
        assert (g.t0, g.t1) == (1, 3)
        assert ROOT8[(g.t1 - g.t0) % 8] == 1j

    def test_no_phases_means_flat(self):
        k = _pair(random.Random(3), 8)
        assert make_gadget(k) == make_gadget(k, (0, 0)) == (k, 0, 0, None)

    def test_equal_keys_rejected(self):
        x = Bits(5, 8)
        with pytest.raises(AssertionError):
            make_gadget(KeyPair(x, x))


def _receive(g, tbl, helper_key, o):
    """Apply a phase table through the server's production path,
    ``ServerSession.receive_phase_table``, holding `helper_key` as the helper
    branch in hand."""
    s = ServerSession(o, random.Random(0), tbl.kappa)
    s.gadgets = {HELPER: make_gadget(KeyPair(helper_key, Bits(helper_key.value ^ 1, helper_key.width))), 0: g}
    s.receive_phase_table(0, tbl)
    return s.gadgets[0]


class TestPhaseTableApplication:
    def _setup(self, salt, thetas, kappa=12):
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        hk, gk = _pair(rng, kappa), _pair(rng, kappa)
        tbl = make_phase_table(hk, gk, thetas, kappa, o, rng)
        return o, hk, gk, tbl

    def test_zero_table_is_identity(self):
        o, hk, gk, tbl = self._setup(4, (0, 0))
        g = make_gadget(gk)
        assert _receive(g, tbl, hk[0], o) == g

    def test_reaches_target_gadget(self):
        o, hk, gk, tbl = self._setup(5, (2, 5))
        got = _receive(make_gadget(gk), tbl, hk[1], o)
        assert got == make_gadget(gk, (2, 5))

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(0, 7), st.integers(0, 7)),
           st.tuples(st.integers(0, 7), st.integers(0, 7)),
           st.integers(0, 999))
    def test_successive_tables_add_mod8(self, th_a, th_b, salt):
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        hk, gk = _pair(rng, 12), _pair(rng, 12)
        t1 = make_phase_table(hk, gk, th_a, 12, o, rng)
        t2 = make_phase_table(hk, gk, th_b, 12, o, rng)
        g = _receive(_receive(make_gadget(gk), t1, hk[0], o), t2, hk[0], o)
        assert g == make_gadget(gk, ((th_a[0] + th_b[0]) % 8, (th_a[1] + th_b[1]) % 8))

    def test_wrong_helper_key_mismatch(self):
        o, hk, gk, tbl = self._setup(6, (1, 2))
        bad = Bits(hk[0].value ^ 1, hk[0].width)
        with pytest.raises(TableMismatch):
            _receive(make_gadget(gk), tbl, bad, o)


class TestDephase:
    def test_reveal_true_phase_flattens(self):
        g = make_gadget(_pair(random.Random(7), 8), (3, 6))
        out = dephase(g, 3)
        assert out.t0 == out.t1 == 3

    def test_residual_four_is_antipodal(self):
        g = make_gadget(_pair(random.Random(8), 8), (0, 5))
        out = dephase(g, 1)
        assert (out.t0, out.t1) == (0, 4)

    def test_reveal_zero_identity(self):
        g = make_gadget(_pair(random.Random(9), 8), (2, 3))
        assert dephase(g, 0) == g


class TestStdSample:
    def test_honest_gadget_uniform(self):
        g = make_gadget(_pair(random.Random(10), 8), (1, 6))
        rng = random.Random(11)
        n = 100_000
        ones = sum(std_sample(g, rng)[0] for _ in range(n))
        assert abs(ones - n / 2) < 4 * (n * 0.25) ** 0.5

    def test_support(self):
        k = _pair(random.Random(14), 8)
        g = make_gadget(k, (0, 3))
        rng = random.Random(15)
        assert all(std_sample(g, rng)[1] in k for _ in range(50))


class TestHadamardSampler:
    def test_residual_zero_is_one_sided(self):
        # flat gadget: parity equation always 0
        o = RandomOracle(SEED)
        rng = random.Random(16)
        g = make_gadget(_pair(rng, 8))
        w0, w1 = branch_words(g.keys, Bits(0xAB, 8), o, 8)
        delta = w0.xor(w1)
        for _ in range(2000):
            d = hadamard_sample(g, Bits(0xAB, 8), o, rng)
            assert d.parity_with(delta) == 0

    def test_residual_one_parity_rate(self):
        # Pr[parity 0] = cos^2(pi/8)
        o = RandomOracle(SEED)
        rng = random.Random(17)
        g = dephase(make_gadget(_pair(rng, 8), (0, 1)), 0)
        w0, w1 = branch_words(g.keys, Bits(0x3C, 8), o, 8)
        delta = w0.xor(w1)
        n = 60_000
        zeros = sum(
            hadamard_sample(g, Bits(0x3C, 8), o, rng).parity_with(delta) == 0
            for _ in range(n)
        )
        p = COS2_TABLE[1]
        assert abs(zeros - n * p) < 4 * (n * p * (1 - p)) ** 0.5

    def test_matches_enumeration_all_phases_small(self):
        # sampler law == brute-force statevector enumeration, TV < 1e-12
        # (|x|, kappa) = (3, 3), all 64 branch-phase pairs (t0, t1)
        o = RandomOracle(SEED)
        rng = random.Random(18)
        keys = _pair(rng, 3)
        pad = Bits(0b101, 3)
        for t0 in range(8):
            for t1 in range(8):
                g = make_gadget(keys, (t0, t1))
                assert _tv(
                    sampler_distribution(g, pad, o, 3),
                    enumerate_hadamard_distribution(g, pad, o, 3),
                ) < 1e-12

    def test_enumeration_normalizes(self):
        o = RandomOracle(SEED)
        rng = random.Random(19)
        g = make_gadget(_pair(rng, 4), (2, 7))
        dist = enumerate_hadamard_distribution(g, Bits(0b11, 2), o, 2)
        assert abs(sum(dist.values()) - 1) < 1e-12

    def test_empirical_matches_class_law(self):
        # frequency of each parity class ~ parity_probs; uniformity inside a
        # class checked with a coarse chi-square-style bound
        o = RandomOracle(SEED)
        rng = random.Random(20)
        g = make_gadget(_pair(rng, 3), (0, 2))
        pad = Bits(0b010, 3)
        w0, w1 = branch_words(g.keys, pad, o, 3)
        delta = w0.xor(w1)
        n = 40_000
        counts: dict[int, int] = {}
        for _ in range(n):
            d = hadamard_sample(g, pad, o, rng)
            counts[d.value] = counts.get(d.value, 0) + 1
        p0 = parity_probs(g)[0]
        zeros = sum(c for d, c in counts.items() if (d & delta.value).bit_count() % 2 == 0)
        assert abs(zeros - n * p0) < 4 * (n * p0 * (1 - p0)) ** 0.5
        class0 = [counts.get(d, 0) for d in range(64) if (d & delta.value).bit_count() % 2 == 0]
        expect = zeros / len(class0)
        assert all(abs(c - expect) < 5 * expect**0.5 + 5 for c in class0)


class TestCombine:
    def _two(self, salt, th_a, th_b, kappa=10):
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        ka, kb = _pair(rng, kappa), _pair(rng, kappa)
        r0, r1 = _pair(rng, kappa)
        tbl = make_combine_table(ka, kb, r0, r1, kappa, o, rng)
        return o, rng, ka, kb, r0, r1, tbl, make_gadget(ka, th_a), make_gadget(kb, th_b)

    def test_merge_keys_pairs_equal_or_crossed_subscripts(self):
        ka, kb = KeyPair(Bits(0b10, 2), Bits(0b01, 2)), KeyPair(Bits(0b110, 3), Bits(0b011, 3))
        assert merge_keys(ka, [(kb, 0)]) == KeyPair(ka.x0.concat(kb.x0), ka.x1.concat(kb.x1))
        assert merge_keys(ka, [(kb, 1)]) == KeyPair(ka.x0.concat(kb.x1), ka.x1.concat(kb.x0))
        assert merge_keys(ka, [(kb, 0)]) == KeyPair(Bits(0b10110, 5), Bits(0b01011, 5))
        assert merge_keys(ka, [(kb, 1)]) == KeyPair(Bits(0b10011, 5), Bits(0b01110, 5))

    def test_merge_keys_equals_a_left_fold_of_concat(self):
        rng = random.Random(20)

        def pair(width):
            return KeyPair(Bits(rng.getrandbits(width), width), Bits(rng.getrandbits(width), width))

        empty = KeyPair(Bits(0, 0), Bits(0, 0))
        assert merge_keys(empty, []) == empty  # the empty register
        assert merge_keys(empty, [(empty, 1)]) == empty
        for n in (0, 1, 2, 7, 40):  # n = 0 is the base alone, n = 1 a single part
            for _ in range(20):
                base = pair(rng.randrange(0, 20))
                parts = [(pair(rng.choice((0, 1, rng.randrange(70)))), rng.randrange(2)) for _ in range(n)]
                x0, x1 = base
                for kb, crossed in parts:
                    x0, x1 = x0.concat(kb[crossed]), x1.concat(kb[1 - crossed])
                assert merge_keys(base, parts) == KeyPair(x0, x1)

    def test_equal_outcome_phases_add(self):
        o, rng, ka, kb, r0, r1, tbl, ga, gb = self._two(21, (1, 2), (3, 4))
        while True:  # draw until the equal-subscript branch comes up
            r, comb = combine_step(ga, gb, tbl, o, rng)
            if r == r0:
                break
        assert comb.keys == KeyPair(ka.x0.concat(kb.x0), ka.x1.concat(kb.x1))
        # equal subscripts pair up: (1+3, 2+4), relative phase 2
        assert (comb.t0, comb.t1) == (4, 6)

    def test_cross_outcome_keys(self):
        o, rng, ka, kb, r0, r1, tbl, ga, gb = self._two(22, (1, 2), (3, 4))
        while True:
            r, comb = combine_step(ga, gb, tbl, o, rng)
            if r == r1:
                break
        assert comb.keys == KeyPair(ka.x0.concat(kb.x1), ka.x1.concat(kb.x0))
        # crossed subscripts pair up: (1+4, 2+3), relative phase 0
        assert (comb.t0, comb.t1) == (5, 5)

    def test_honest_outcome_is_fair_coin(self):
        o, rng, ka, kb, r0, r1, tbl, ga, gb = self._two(23, (0, 5), (6, 1))
        n = 100_000
        eq = sum(combine_step(ga, gb, tbl, o, rng)[0] == r0 for _ in range(n))
        assert abs(eq - n / 2) < 4 * (n * 0.25) ** 0.5

    def test_wrong_table_mismatch(self):
        o, rng, ka, kb, r0, r1, tbl, ga, gb = self._two(24, (0, 0), (0, 0))
        other = make_gadget(_pair(rng, 10), (0, 0))
        with pytest.raises(TableMismatch):
            combine_step(ga, other, tbl, o, rng)

    def test_combine_then_dephase_is_one_sided(self):
        # client knows the combined relative phase; dephasing with it makes
        # the Hadamard parity always 0 — the honest one-sided error
        o, rng, ka, kb, r0, r1, tbl, ga, gb = self._two(25, (1, 7), (2, 5))
        for _ in range(200):
            r, comb = combine_step(ga, gb, tbl, o, rng)
            if r == r0:  # equal pairing: theta = (7+5) - (1+2)
                rel = ((7 + 5) - (1 + 2)) % 8
                merged = KeyPair(ka.x0.concat(kb.x0), ka.x1.concat(kb.x1))
            else:  # crossed pairing: theta = (7+2) - (1+5)
                rel = ((7 + 2) - (1 + 5)) % 8
                merged = KeyPair(ka.x0.concat(kb.x1), ka.x1.concat(kb.x0))
            flat = dephase(comb, rel)
            assert flat.keys == merged
            pad = Bits(rng.getrandbits(10), 10)
            w0, w1 = branch_words(merged, pad, o, 10)
            d = hadamard_sample(flat, pad, o, rng)
            assert d.parity_with(w0.xor(w1)) == 0


class TestFoldedRegisterIsMeasuredWhole:
    """A folded register as ``combine_step`` leaves it, with no build step,
    is measured and decoded over its whole merged key pair: the parts are
    merged once, not dropped and not twice."""

    KAPPA = 8

    def _fold(self, salt, n):
        """n gadgets folded into a base, every phase 0, and the merged pair
        built independently with ``Bits.concat``."""
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        pairs = [_pair(rng, self.KAPPA) for _ in range(n + 1)]
        g = make_gadget(pairs[0])
        x0, x1 = pairs[0]
        for kb in pairs[1:]:
            r0, r1 = _pair(rng, self.KAPPA)
            tbl = make_combine_table(pairs[0], kb, r0, r1, self.KAPPA, o, rng)
            r, g = combine_step(g, make_gadget(kb), tbl, o, rng)
            crossed = int(r == r1)
            x0, x1 = x0.concat(kb[crossed]), x1.concat(kb[1 - crossed])
        return o, rng, g, KeyPair(x0, x1)

    # each variant with its relative phase t1 - t0 (the fold leaves 0)
    VARIANTS = {
        "combined": (lambda g: g, 0),
        "rotated": (lambda g: rotate_branches(g, 1, 5), 4),
        "dephased": (lambda g: dephase(g, 4), 4),
    }

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_measurements_and_decode_see_the_merged_pair(self, variant, n):
        op, rel = self.VARIANTS[variant]
        o, rng, comb, merged = self._fold(40 + n, n)
        g = op(comb)
        assert g.parts is not None  # not built
        width = (n + 1) * self.KAPPA
        assert merged.x0.width == width
        assert {std_sample(g, rng) for _ in range(50)} == {(0, merged.x0), (1, merged.x1)}
        # relative phase 0 or 4 puts every d in one parity class of the merged words
        for _ in range(20):
            pad = Bits(rng.getrandbits(self.KAPPA), self.KAPPA)
            w0, w1 = branch_words(merged, pad, o, self.KAPPA)
            d = hadamard_sample(g, pad, o, rng)
            assert d.width == width + self.KAPPA
            assert d.parity_with(w0.xor(w1)) == rel // 4
        assert decode_output([g], [merged]) == (PlusStateVector((rel,)), g.t0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjugate_decode_sees_the_merged_pair(self, n):
        o, rng, comb, merged = self._fold(50 + n, n)
        s = ConjugateSession(o, rng, self.KAPPA)
        s.gadgets[0] = rotate_branches(comb, 2, 7)
        # the branch swap conjugates the relative phase 5 and the global phase is t1
        assert s.decode_outputs([0], [merged]) == (PlusStateVector((3,)), 7)


@pytest.fixture
def decrypts(monkeypatch):
    """The keys of every ``decrypt_row`` call the gadget module makes, in order."""
    keys = []
    decrypt_row = gadget.decrypt_row

    def recording(table, key, oracle):
        keys.append(key)
        return decrypt_row(table, key, oracle)

    monkeypatch.setattr(gadget, "decrypt_row", recording)
    return keys


class TestServerDecryptOrder:
    """The server opens a table's rows one key at a time, in a fixed order,
    and stops at the first key that opens no row."""

    kappa = 12

    def _keys(self, salt):
        rng = random.Random(salt)
        return RandomOracle(SEED), rng, _pair(rng, self.kappa), _pair(rng, self.kappa), _pair(rng, self.kappa)

    def test_branch_phases_in_branch_order(self, decrypts):
        o, rng, hk, gk, _ = self._keys(30)
        tbl = make_phase_table(hk, gk, (3, 6), self.kappa, o, rng)
        assert decrypt_branch_phases(make_gadget(gk), tbl, hk[1], o) == (3, 6)
        assert decrypts == [hk[1].concat(gk[0]), hk[1].concat(gk[1])]

    def test_branch_phases_abort_at_first_missing_row(self, decrypts):
        o, rng, hk, gk, other = self._keys(31)
        tbl = make_phase_table(hk, gk, (1, 2), self.kappa, o, rng)
        with pytest.raises(TableMismatch):
            decrypt_branch_phases(make_gadget(other), tbl, hk[0], o)  # a table for other keys
        assert len(decrypts) == 1
        decrypts.clear()
        with pytest.raises(TableMismatch):  # branch 0 opens a row, branch 1 none
            decrypt_branch_phases(make_gadget(KeyPair(gk[0], other[1])), tbl, hk[0], o)
        assert decrypts == [hk[0].concat(gk[0]), hk[0].concat(other[1])]

    def test_combine_in_subscript_order(self, decrypts):
        o, rng, ka, kb, (r0, r1) = self._keys(32)
        tbl = make_combine_table(ka, kb, r0, r1, self.kappa, o, rng)
        combine_step(make_gadget(ka), make_gadget(kb), tbl, o, rng)
        assert decrypts == [ka[a].concat(kb[b]) for a in (0, 1) for b in (0, 1)]

    def test_combine_aborts_at_first_missing_row(self, decrypts):
        o, rng, ka, kb, (r0, r1) = self._keys(33)
        other = _pair(rng, self.kappa)
        tbl = make_combine_table(ka, kb, r0, r1, self.kappa, o, rng)
        with pytest.raises(TableMismatch):
            combine_step(make_gadget(other), make_gadget(kb), tbl, o, rng)  # a table for other keys
        assert len(decrypts) == 1
        decrypts.clear()
        with pytest.raises(TableMismatch):  # (0, 0) opens a row, (0, 1) none
            combine_step(make_gadget(ka), make_gadget(KeyPair(kb[0], other[1])), tbl, o, rng)
        assert decrypts == [ka[0].concat(kb[0]), ka[0].concat(other[1])]


class TestDecodeAndFidelity:
    def test_round_trip_random_thetas(self):
        rng = random.Random(26)
        for _ in range(50):
            keys = [_pair(rng, 8) for _ in range(4)]
            thetas = [(rng.randrange(8), rng.randrange(8)) for _ in range(4)]
            gs = [make_gadget(k, t) for k, t in zip(keys, thetas)]
            vec, phase = decode_output(gs, keys)
            assert vec.thetas == tuple((t1 - t0) % 8 for t0, t1 in thetas)
            assert phase == sum(t0 for t0, _ in thetas) % 8

    def test_single_example(self):
        k = _pair(random.Random(27), 8)
        vec, _ = decode_output([make_gadget(k, (2, 7))], [k])
        assert vec.thetas == (5,)

    def test_all_zero(self):
        rng = random.Random(28)
        keys = [_pair(rng, 8) for _ in range(3)]
        vec, phase = decode_output([make_gadget(k, (0, 0)) for k in keys], keys)
        assert vec.thetas == (0, 0, 0)
        assert phase == 0

    def test_key_mismatch_rejected(self):
        rng = random.Random(30)
        k, other = _pair(rng, 8), _pair(rng, 8)
        with pytest.raises(TableMismatch):
            decode_output([make_gadget(k)], [other])

    def test_fidelity_values(self):
        v = PlusStateVector((1, 2, 3))
        assert fidelity_ideal(v, [1, 2, 3]) == 1.0
        assert fidelity_ideal(v, [1, 6, 3]) == 0.0  # one entry off by 4
        assert abs(fidelity_ideal(v, [0, 2, 3]) - COS2_TABLE[1]) < 1e-15
        assert abs(COS2_TABLE[1] - 0.8535533905932737) < 1e-12
        with pytest.raises(ValueError):
            fidelity_ideal(v, [1, 2])


class TestConjugation:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 999))
    def test_observable_distributions_identical(self, t0, t1, salt):
        # the conjugate negates both phases; the Hadamard law is
        # conjugation-invariant, exactly (bitwise-equal floats)
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        keys = _pair(rng, 3)
        pad = Bits(rng.getrandbits(3), 3)
        g = make_gadget(keys, (t0, t1))
        cg = Gadget(g.keys, -t0 % 8, -t1 % 8)
        assert parity_probs(g) == parity_probs(cg)
        assert sampler_distribution(g, pad, o, 3) == sampler_distribution(cg, pad, o, 3)

