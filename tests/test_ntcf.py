import random

import pytest

from cvqcsim.bits import Bits
from cvqcsim.ntcf import ClawResult, _permute, chk, dec, eval_claw, keygen


class TestKeygen:
    def test_small_kappa_rejected(self):
        with pytest.raises(ValueError):
            keygen(1, random.Random(0))

    def test_different_seeds_different_trapdoors(self):
        a = keygen(8, random.Random(1))
        b = keygen(8, random.Random(2))
        assert (a.shift, _permute(a, 1)) != (b.shift, _permute(b, 1))

    def test_shift_nonzero(self):
        for seed in range(50):
            key = keygen(2, random.Random(seed))
            assert key.shift.value != 0

    def test_hundred_evals_have_distinct_claws(self):
        key = keygen(8, random.Random(3))
        rng = random.Random(4)
        for _ in range(100):
            res = eval_claw(key, rng)
            assert res.x0 != res.x1
            assert dec(key, 0, res.y) != dec(key, 1, res.y)


class TestEvalClaw:
    def test_chk_accepts_both_branches(self):
        key = keygen(10, random.Random(5))
        rng = random.Random(6)
        for _ in range(50):
            res = eval_claw(key, rng)
            assert chk(key, 0, res.x0, res.y)
            assert chk(key, 1, res.x1, res.y)

    def test_image_collisions_at_birthday_rate(self):
        # the image set has 2^kappa points (one per u), so duplicates among n
        # draws follow the birthday law: E[dup] = n - M(1 - (1 - 1/M)^n)
        n = 10_000
        key = keygen(16, random.Random(7))
        rng = random.Random(8)
        dup = n - len({eval_claw(key, rng).y.value for _ in range(n)})
        m = 2**16
        expected = n - m * (1 - (1 - 1 / m) ** n)  # ~ 724
        assert abs(dup - expected) < 5 * expected**0.5
        # and at kappa=32 the same draw count should essentially never collide
        key32 = keygen(32, random.Random(7))
        assert n - len({eval_claw(key32, rng).y.value for _ in range(n)}) <= 3


class TestDec:
    def test_round_trip(self):
        key = keygen(12, random.Random(9))
        rng = random.Random(10)
        for _ in range(50):
            res = eval_claw(key, rng)
            assert dec(key, 0, res.y) == res.x0
            assert dec(key, 1, res.y) == res.x1

    def test_random_y_rejected(self):
        # at kappa=4 the image set has 16 of 256 points; enumerate it and
        # check dec is None exactly off-image
        key = keygen(4, random.Random(11))
        image = {
            eval_claw(key, random.Random(i)).y.value for i in range(200)
        }  # eval image is u-uniform; 200 draws cover all 16 w.h.p.
        assert len(image) == 16
        for yv in range(256):
            y = Bits(yv, 8)
            got = dec(key, 0, y)
            if yv in image:
                assert got is not None
            else:
                assert got is None

    def test_wrong_width_rejected(self):
        key = keygen(8, random.Random(12))
        assert dec(key, 0, Bits(0, 15)) is None


class TestChk:
    def test_negative_x(self):
        key = keygen(8, random.Random(13))
        rng = random.Random(14)
        res = eval_claw(key, rng)
        bad = res.x0.xor(Bits(1, 8))
        assert not chk(key, 0, bad, res.y)
        assert not chk(key, 0, res.x1, res.y)  # branch mix-up fails too

    def test_negative_y(self):
        key = keygen(8, random.Random(15))
        rng = random.Random(16)
        res = eval_claw(key, rng)
        assert not chk(key, 0, res.x0, res.y.xor(Bits(1, 16)))

    def test_biconditional_exhaustive_small_kappa(self):
        # chk(pk,b,x,y) <=> dec(sk,b,y) = x, over the whole (b, x, y) cube
        key = keygen(4, random.Random(17))
        for b in (0, 1):
            for xv in range(16):
                for yv in range(256):
                    x, y = Bits(xv, 4), Bits(yv, 8)
                    assert chk(key, b, x, y) == (dec(key, b, y) == x)

    def test_biconditional_random_negatives(self):
        key = keygen(16, random.Random(18))
        rng = random.Random(19)
        for _ in range(10_000):
            x = Bits(rng.getrandbits(16), 16)
            y = Bits(rng.getrandbits(32), 32)
            assert chk(key, 0, x, y) == (dec(key, 0, y) == x)


def test_every_image_has_exactly_two_preimages():
    # exhaustive 2-to-1 check at kappa=6: f(b, x) over all (b, x)
    key = keygen(6, random.Random(20))
    hits: dict[int, set[tuple[int, int]]] = {}
    for b in (0, 1):
        for xv in range(64):
            u = xv ^ key.shift.value if b else xv
            y = _permute(key, u << 6)  # f(b, x) = P(u || 0^kappa)
            hits.setdefault(y, set()).add((b, xv))
    assert len(hits) == 64
    for pre in hits.values():
        assert len(pre) == 2
        (b0, x0), (b1, x1) = sorted(pre)
        assert (b0, b1) == (0, 1) and x0 != x1


def test_claw_result_fields():
    key = keygen(8, random.Random(21))
    res = eval_claw(key, random.Random(22))
    assert isinstance(res, ClawResult)
    assert res.y.width == 16 and res.x0.width == res.x1.width == 8
    assert res.x0.xor(res.x1) == key.shift


def test_claw_partner_matches_branch_one_decode_exhaustive():
    # claw_partner(sk, dec(sk, 0, y)) == dec(sk, 1, y) over the whole kappa=3 cube
    from cvqcsim.ntcf import claw_partner

    for key_seed in range(4):
        key = keygen(3, random.Random(key_seed))
        valid = 0
        for yv in range(64):
            y = Bits(yv, 6)
            x0 = dec(key, 0, y)
            if x0 is None:
                assert dec(key, 1, y) is None
                continue
            valid += 1
            assert claw_partner(key, x0) == dec(key, 1, y)
        assert valid == 8  # one image per u in {0,1}^3
