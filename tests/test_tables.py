import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqcsim.bits import Bits
from cvqcsim.oracle import RandomOracle
from cvqcsim.tables import (
    XOR,
    Z8,
    Ciphertext,
    LookupTable,
    TagCollision,
    decrypt_row,
    encrypt,
    make_combine_table,
    make_phase_table,
    table_payload,
)

SEED = bytes(range(32))
KAPPA = 16


def _pair(rng, kappa):
    while True:
        a, b = Bits(rng.getrandbits(kappa), kappa), Bits(rng.getrandbits(kappa), kappa)
        if a != b:
            return (a, b)


class TestEncrypt:
    def test_zero_plaintext_is_bare_mask(self):
        o = RandomOracle(SEED)
        rng = random.Random(0)
        ct = encrypt(Bits(0xBEEF, 16), 0, Z8, KAPPA, o, rng)
        mask = o.query(Bits(ct.pad_r, KAPPA).concat(Bits(0xBEEF, 16)), 3)
        assert ct.masked == mask

    def test_z8_round_trip(self):
        o = RandomOracle(SEED)
        rng = random.Random(1)
        key = Bits(0x1234, 16)
        ct = encrypt(key, 3, Z8, KAPPA, o, rng)
        tbl = LookupTable((ct,), Z8, KAPPA)
        assert decrypt_row(tbl, key, o) == (0, 3)

    @settings(max_examples=50)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 999))
    def test_xor_round_trip(self, kv, pv, salt):
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        key = Bits(kv, 16)
        ct = encrypt(key, pv, XOR, 16, o, rng)
        tbl = LookupTable((ct,), XOR, 16)
        assert decrypt_row(tbl, key, o) == (0, pv)

    def test_rejects_bad_plaintext(self):
        o = RandomOracle(SEED)
        rng = random.Random(2)
        with pytest.raises(AssertionError):
            encrypt(Bits(1, 8), 9, Z8, 8, o, rng)
        with pytest.raises(AssertionError):
            encrypt(Bits(1, 8), 1 << 8, XOR, 8, o, rng)  # wider than kappa
        with pytest.raises(AssertionError):
            encrypt(Bits(1, 8), Bits(0, 8), XOR, 8, o, rng)  # not an int
        with pytest.raises(ValueError):
            encrypt(Bits(1, 8), 0, "GF4", 8, o, rng)


class TestDecryptRow:
    def test_unrelated_key_no_match(self):
        o = RandomOracle(SEED)
        rng = random.Random(3)
        tbl = make_phase_table(_pair(rng, KAPPA), _pair(rng, KAPPA), (2, 5), KAPPA, o, rng)
        assert decrypt_row(tbl, Bits(rng.getrandbits(2 * KAPPA), 2 * KAPPA), o) is None

    def test_small_kappa_false_match_rate(self):
        # with an unrelated key each of the 4 tags matches w.p. 2^-4, so a
        # fresh (table, key) trial hits w.p. 1 - (1 - 2^-4)^4 ~ 0.2275 (the
        # rows * 2^-kappa figure is the union bound on this).  A *fixed*
        # table has its own realized match fraction, so the table must be
        # resampled every trial.
        kappa = 4
        o = RandomOracle(SEED)
        rng = random.Random(4)
        n = hits = 0
        while n < 15_000:
            hk, gk = _pair(rng, kappa), _pair(rng, kappa)
            tbl = make_phase_table(hk, gk, (1, 2), kappa, o, rng)
            real = {hk[a].concat(gk[b]) for a in (0, 1) for b in (0, 1)}
            key = Bits(rng.getrandbits(2 * kappa), 2 * kappa)
            if key in real:  # a lucky draw of a genuine key is not a false match
                continue
            n += 1
            try:
                hits += decrypt_row(tbl, key, o) is not None
            except TagCollision:
                hits += 1
        p = 1 - (1 - 2**-4) ** 4
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(hits - n * p) < 4 * sigma
        assert hits / n <= 4 * 2**-4 + 4 * sigma / n  # spec-level union bound

    def test_collision_signalled(self):
        # two rows encrypted under the SAME key -> both tags match
        o = RandomOracle(SEED)
        rng = random.Random(5)
        key = Bits(0xAB, 8)
        tbl = LookupTable(
            (encrypt(key, 1, Z8, 8, o, rng), encrypt(key, 2, Z8, 8, o, rng)), Z8, 8
        )
        with pytest.raises(TagCollision):
            decrypt_row(tbl, key, o)


class TestPhaseTable:
    def test_all_zero_phases(self):
        o = RandomOracle(SEED)
        rng = random.Random(6)
        hk, gk = _pair(rng, KAPPA), _pair(rng, KAPPA)
        tbl = make_phase_table(hk, gk, (0, 0), KAPPA, o, rng)
        for bh in (0, 1):
            for b in (0, 1):
                assert decrypt_row(tbl, hk[bh].concat(gk[b]), o)[1] == 0

    def test_branch_phases_for_both_helper_prefixes(self):
        o = RandomOracle(SEED)
        rng = random.Random(7)
        hk, gk = _pair(rng, KAPPA), _pair(rng, KAPPA)
        tbl = make_phase_table(hk, gk, (2, 5), KAPPA, o, rng)
        for bh in (0, 1):
            assert decrypt_row(tbl, hk[bh].concat(gk[0]), o)[1] == 2
            assert decrypt_row(tbl, hk[bh].concat(gk[1]), o)[1] == 5

    @settings(max_examples=30)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 999))
    def test_reconstruct_phase_pair_exhaustively(self, t0, t1, salt):
        o = RandomOracle(SEED)
        rng = random.Random(salt)
        hk, gk = _pair(rng, 12), _pair(rng, 12)
        tbl = make_phase_table(hk, gk, (t0, t1), 12, o, rng)
        seen = {
            (bh, b): decrypt_row(tbl, hk[bh].concat(gk[b]), o)[1]
            for bh in (0, 1)
            for b in (0, 1)
        }
        assert seen == {(0, 0): t0, (0, 1): t1, (1, 0): t0, (1, 1): t1}


class TestCombineTable:
    def test_equal_vs_cross_subscripts(self):
        o = RandomOracle(SEED)
        rng = random.Random(8)
        ka, kb = _pair(rng, KAPPA), _pair(rng, KAPPA)
        r0, r1 = _pair(rng, KAPPA)
        tbl = make_combine_table(ka, kb, r0, r1, KAPPA, o, rng)
        assert decrypt_row(tbl, ka[0].concat(kb[0]), o)[1] == r0.value
        assert decrypt_row(tbl, ka[0].concat(kb[1]), o)[1] == r1.value
        assert decrypt_row(tbl, ka[1].concat(kb[1]), o)[1] == r0.value
        assert decrypt_row(tbl, ka[1].concat(kb[0]), o)[1] == r1.value

    def test_equal_targets_rejected(self):
        o = RandomOracle(SEED)
        rng = random.Random(9)
        r = Bits(7, KAPPA)
        with pytest.raises(ValueError):
            make_combine_table(_pair(rng, KAPPA), _pair(rng, KAPPA), r, r, KAPPA, o, rng)

    def test_decryptions_partition_two_two(self):
        o = RandomOracle(SEED)
        rng = random.Random(10)
        ka, kb = _pair(rng, KAPPA), _pair(rng, KAPPA)
        r0, r1 = _pair(rng, KAPPA)
        tbl = make_combine_table(ka, kb, r0, r1, KAPPA, o, rng)
        got = [
            decrypt_row(tbl, ka[a].concat(kb[b]), o)[1]
            for a in (0, 1)
            for b in (0, 1)
        ]
        assert got.count(r0.value) == 2 and got.count(r1.value) == 2


class TestTableProperties:
    def test_row_order_independence(self):
        o = RandomOracle(SEED)
        rng = random.Random(11)
        hk, gk = _pair(rng, KAPPA), _pair(rng, KAPPA)
        tbl = make_phase_table(hk, gk, (3, 6), KAPPA, o, rng)
        shuffled = tbl._replace(rows=tuple(reversed(tbl.rows)))
        for bh in (0, 1):
            for b in (0, 1):
                key = hk[bh].concat(gk[b])
                assert decrypt_row(tbl, key, o)[1] == decrypt_row(shuffled, key, o)[1]

    def test_payload_round_trip(self):
        o = RandomOracle(SEED)
        rng = random.Random(13)
        ka, kb = _pair(rng, KAPPA), _pair(rng, KAPPA)
        r0, r1 = _pair(rng, KAPPA)
        for tbl in (
            make_combine_table(ka, kb, r0, r1, KAPPA, o, rng),
            make_phase_table(ka, kb, (1, 4), KAPPA, o, rng),
        ):
            p = json.loads(table_payload(tbl))
            fields = [[r[k] for k in ("R", "ct", "Rp", "tag")] for r in p["rows"]]
            rows = [[v if isinstance(v, int) else int(v.partition(":")[2], 16) for v in f] for f in fields]
            assert LookupTable(tuple(Ciphertext(*r) for r in rows), p["group"], KAPPA) == tbl
            assert {"rows", "group"} == set(p)
            assert all({"R", "ct", "Rp", "tag"} == set(r) for r in p["rows"])

    def test_payload_tokens_are_bits_tokens(self):
        o = RandomOracle(SEED)
        rng = random.Random(15)
        for kappa in (2, 5, 16):
            ka, kb = _pair(rng, kappa), _pair(rng, kappa)
            r0, r1 = _pair(rng, kappa)
            for tbl in (
                make_combine_table(ka, kb, r0, r1, kappa, o, rng),
                make_phase_table(ka, kb, (1, 4), kappa, o, rng),
            ):
                for row, r in zip(tbl.rows, json.loads(table_payload(tbl))["rows"]):
                    assert r["R"] == Bits(row.pad_r, kappa).token()
                    assert r["Rp"] == Bits(row.pad_rp, kappa).token()
                    assert r["tag"] == Bits(row.tag, kappa).token()
                    ct = Bits(row.masked, kappa).token() if tbl.group == XOR else row.masked
                    assert r["ct"] == ct

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 24), st.sampled_from((Z8, XOR)), st.data())
    def test_payload_text_matches_field_by_field_reference(self, kappa, group, data):
        # the row template against a payload built from Bits tokens, field by field
        word = st.integers(0, (1 << kappa) - 1)
        ct = st.integers(0, 7) if group == Z8 else word
        rows = data.draw(st.lists(st.tuples(word, ct, word, word), max_size=4))
        tbl = LookupTable(tuple(Ciphertext(*r) for r in rows), group, kappa)
        ref = {
            "rows": [
                {
                    "R": Bits(r, kappa).token(),
                    "ct": c if group == Z8 else Bits(c, kappa).token(),
                    "Rp": Bits(rp, kappa).token(),
                    "tag": Bits(tag, kappa).token(),
                }
                for r, c, rp, tag in rows
            ],
            "group": group,
        }
        assert json.loads(table_payload(tbl)) == ref
