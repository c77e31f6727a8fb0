"""Output checks for the benchmark workloads.

Every check states a property the protocol must have and computes it here,
apart from the simulator: no helper from ``cvqcsim`` is used to decide
whether an output is right, and nothing is compared against a stored copy of
an earlier run.  Each check returns ``None`` when the output passes and a
one-line description of the fault when it does not.
"""

from __future__ import annotations

import json
import math

# The quiz is won when delta = 1 (drawn 1 time in 3) and the Hadamard parity
# comes out 0, which happens with probability cos^2(pi/8) for an honest server.
HONEST_QUIZ_WIN = math.cos(math.pi / 8) ** 2 / 3

# Natural dispatch: a bare test round half the time, otherwise one of five
# sub-rounds uniformly; prep:inph is the quiz and comp the computation round.
BUCKET_TARGETS = {"test": 0.8, "quiz": 0.1, "comp": 0.1}

Z_CHECK = 4.0  # width of every statistical acceptance interval, in sigmas


def bucket_of(round_type: str) -> str:
    if round_type == "prep:inph":
        return "quiz"
    if round_type == "comp":
        return "comp"
    return "test"


def wilson(successes: int, n: int, z: float = Z_CHECK) -> tuple[float, float]:
    """Wilson score interval (low, high) for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return center - half, center + half


def check_bucket_frequencies(counts: dict[str, int]) -> str | None:
    """Round-type buckets must match 0.8 / 0.1 / 0.1 within 4-sigma intervals."""
    n = sum(counts.values())
    for bucket, target in BUCKET_TARGETS.items():
        low, high = wilson(counts.get(bucket, 0), n)
        if not low <= target <= high:
            return f"bucket {bucket}: {counts.get(bucket, 0)}/{n} excludes {target} ([{low:.4f},{high:.4f}])"
    return None


def check_quiz_win_rate(quizzes: int, wins: int) -> str | None:
    """Honest quiz win rate must match cos^2(pi/8)/3 within a 4-sigma interval."""
    low, high = wilson(wins, quizzes)
    if not low <= HONEST_QUIZ_WIN <= high:
        return f"quiz wins {wins}/{quizzes} exclude {HONEST_QUIZ_WIN:.6f} ([{low:.4f},{high:.4f}])"
    return None


def check_comp_decode(client_thetas, decoded_thetas) -> str | None:
    """A decoded computation round must reproduce the client's phases exactly."""
    if tuple(decoded_thetas) != tuple(client_thetas):
        return f"decoded phases {tuple(decoded_thetas)} != client phases {tuple(client_thetas)}"
    return None


def check_rejection_floor(rejected: int, n: int, p_min: float, what: str) -> str | None:
    """At least a share p_min of n sessions must be rejected, less 4 sigma."""
    if n == 0:
        return None
    floor = n * p_min - Z_CHECK * math.sqrt(n * p_min * (1 - p_min))
    if rejected < floor:
        return f"{what}: {rejected}/{n} rejected, below the floor {floor:.1f} (p_min={p_min:.4f})"
    return None


def random_response_reject_floor(kappa: int) -> float:
    """Least rejection probability of a server answering uniformly at random.

    A bare test round (probability 1/2) checks L+2 keys and passes only by
    guessing them.  Every other round starts with the helper's Hadamard test,
    whose parity a random answer meets with probability 1/2.  After it, only
    the quiz (1 in 5) can still pass without a guessed key: at delta=1 it
    always passes and at delta in {0,4} it passes on parity, 2/3 in all.
    Each remaining path has to hit a key or a combine target, which costs at
    least 2^(1-kappa); 2^-kappa per path bounds the sum generously.
    """
    return 1.0 - (0.5 * 0.5 * (1 / 5) * (2 / 3) + 2.0 ** -kappa)


def corrupt_setup_reject_floor(kappa: int) -> float:
    """A flipped setup image inverts to a valid key pair with probability
    2^-kappa at most; otherwise the client aborts during setup."""
    return 1.0 - 2.0 ** -kappa


def parse_token(token: str) -> tuple[int, int]:
    """(value, width) of a ``"<width>:<hex>"`` transcript token."""
    width, _, hexpart = token.partition(":")
    return (int(hexpart, 16) if hexpart else 0), int(width)


def parse_transcript(jsonl: str) -> tuple[list[dict] | None, str | None]:
    try:
        entries = [json.loads(line) for line in jsonl.splitlines()]
    except json.JSONDecodeError as e:
        return None, f"transcript does not parse: {e}"
    if not entries or not all(isinstance(e, dict) for e in entries):
        return None, "transcript is empty or holds a non-object line"
    return entries, None


def check_transcript(jsonl: str, round_type: str, flag: bool, score, quiz_delta) -> str | None:
    """The transcript parses, numbers its messages 0, 1, 2, ... and ends with
    a ``session.outcome`` message that agrees with the returned outcome."""
    entries, err = parse_transcript(jsonl)
    if err:
        return err
    for i, e in enumerate(entries):
        if e.get("seq") != i:
            return f"entry {i} has seq {e.get('seq')!r}"
    last = entries[-1]
    if last.get("step") != "session.outcome" or last.get("sender") != "client":
        return f"last entry is {last.get('sender')}/{last.get('step')}, not client/session.outcome"
    want = {"type": round_type, "flag": flag, "score": score, "quiz_delta": quiz_delta}
    if last.get("payload") != want:
        return f"recorded outcome {last.get('payload')} != returned outcome {want}"
    return None


def shows_suffix_zero_event(jsonl: str) -> str | None:
    """The transcript holds a Hadamard reply whose last kappa bits are all
    zero: the 2^-kappa event on which an honest server is rejected."""
    entries, err = parse_transcript(jsonl)
    if err:
        return err
    kappa = None
    for e in entries:
        if e.get("step") == "round.plan":
            kappa = e["payload"]["kappa"]
        elif e.get("step") == "reply.hadamard" and kappa is not None:
            value, _ = parse_token(e["payload"]["d"])
            if value & ((1 << kappa) - 1) == 0:
                return None
    return "rejected without a Hadamard reply whose last kappa bits are zero"


def check_same_verdict(a: tuple, b: tuple) -> str | None:
    """Two servers the client cannot tell apart give the same
    (round_type, flag, score) on a shared seed."""
    if tuple(a) != tuple(b):
        return f"verdicts differ on a shared seed: {tuple(a)} vs {tuple(b)}"
    return None


def check_replay(first: bytes, again: bytes) -> str | None:
    """A session replayed from its seed gives byte-identical JSONL (compared
    by SHA-256 digest, so recorded transcripts need not be kept)."""
    if first != again:
        return f"replay differs: {first.hex()[:16]} vs {again.hex()[:16]}"
    return None
