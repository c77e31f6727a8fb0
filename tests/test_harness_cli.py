"""Harness and CLI tests: Wilson intervals, report determinism (serial and
parallel), the scaling bench, and the command-line surface end to end."""

import json
from random import Random

import pytest

import cvqcsim.adversary as adv
from cvqcsim.cli import main
from cvqcsim.harness import (
    BUCKETS,
    bucket_of,
    estimate_rates,
    master_seed_from,
    scaling_bench,
    wilson_interval,
)

HONEST = adv.parse_strategy("honest")
SEED32 = bytes(range(32))


# -- wilson intervals ----------------------------------------------------------


def test_wilson_known_value():
    p, low, high = wilson_interval(8, 10)
    assert p == 0.8
    assert low == pytest.approx(0.4901625, abs=1e-6)
    assert high == pytest.approx(0.9433178, abs=1e-6)


def test_wilson_edges_and_symmetry():
    assert wilson_interval(0, 0) == (0.0, 0.0, 1.0)
    p0, lo0, hi0 = wilson_interval(0, 5)
    p5, lo5, hi5 = wilson_interval(5, 5)
    assert (p0, lo0) == (0.0, 0.0) and hi0 < 1.0
    assert (p5, hi5) == (1.0, 1.0) and lo5 > 0.0
    _, lo2, hi2 = wilson_interval(2, 10)
    _, lo8, hi8 = wilson_interval(8, 10)
    assert lo2 == pytest.approx(1 - hi8) and hi2 == pytest.approx(1 - lo8)


def test_wilson_interval_is_calibrated():
    # meta-experiment: the 95% interval on freq_comp should cover the true
    # dispatch rate 0.1 in roughly 95 of 100 independent reports
    covered = 0
    for rep in range(100):
        rep_report = estimate_rates(1, 6, 250, HONEST, f"cal-{rep}")
        _, low, high = rep_report.rates()["freq_comp"]
        covered += low <= 0.1 <= high
    assert covered >= 87, covered


# -- bucketing and seeds ---------------------------------------------------------


def test_bucket_of():
    assert bucket_of("comp") == "comp"
    assert bucket_of("prep:inph") == "quiz"
    for t in ("test", "prep:stdb", "prep:coph", "prep:bn"):
        assert bucket_of(t) == "test"


def test_master_seed_from_variants():
    assert master_seed_from(SEED32) == SEED32  # 32 bytes pass through
    short = master_seed_from(b"abc")
    assert len(short) == 32 and short != b"abc"
    assert master_seed_from(b"abc") == short
    assert master_seed_from(17) == master_seed_from(17)
    assert master_seed_from(17) != master_seed_from(18)
    r = Random(3)
    assert len(master_seed_from(r)) == 32


# -- estimate_rates --------------------------------------------------------------


def test_report_is_deterministic_and_timing_is_excluded():
    a = estimate_rates(1, 8, 300, HONEST, SEED32)
    b = estimate_rates(1, 8, 300, HONEST, SEED32)
    assert a.to_json() == b.to_json()
    assert a.seed == SEED32.hex()
    assert "elapsed_s" not in a.to_dict()
    timed = a.to_dict(timing=True)
    assert "elapsed_s" in timed and "per_session_s" in timed


def test_report_counts_are_consistent():
    r = estimate_rates(1, 8, 400, HONEST, b"counts")
    assert sum(r.round_counts.values()) == r.sessions == 400
    assert sum(r.bucket_counts.values()) == r.sessions
    assert set(r.bucket_counts) == set(BUCKETS)
    assert r.quiz_count == r.bucket_counts["quiz"]
    assert r.comp_count == r.bucket_counts["comp"]
    assert r.win_count <= r.quiz_count
    assert r.pass_count <= r.sessions
    assert r.comp_decoded <= r.comp_count
    if r.comp_decoded:
        assert r.comp_fidelity_mean == 1.0


def test_parallel_run_matches_serial():
    # the pool rebuilds each strategy from its spec, so a tampering one must
    # tamper there too: equal to serial, and unlike honest under the same seed
    honest = estimate_rates(1, 6, 600, HONEST, b"pool-check")
    assert honest.to_json() == estimate_rates(1, 6, 600, HONEST, b"pool-check", workers=2).to_json()
    const0 = adv.parse_strategy({"attack": "phase_offset", "f": "const:0", "g": "const:0"})
    serial = estimate_rates(1, 6, 600, const0, b"pool-check")
    assert serial.to_json() == estimate_rates(1, 6, 600, const0, b"pool-check", workers=2).to_json()
    assert serial.pass_count != honest.pass_count


@pytest.mark.parametrize(
    "workers, sessions, pooled", [(64, 100, None), (64, 256, None), (64, 257, 2), (2, 600, 2), (3, 600, 3)]
)
def test_pool_starts_no_more_workers_than_chunks(monkeypatch, workers, sessions, pooled):
    # 256 sessions per chunk: a single chunk runs in this process, more
    # start at most one worker per chunk, and the report does not change
    import multiprocessing

    sizes = []

    class RecordingPool:  # records its size and maps in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    report = estimate_rates(1, 6, sessions, HONEST, b"chunks", workers=workers)
    assert sizes == ([] if pooled is None else [pooled])
    assert report.to_json() == estimate_rates(1, 6, sessions, HONEST, b"chunks").to_json()


def test_force_plan_is_echoed_and_applied():
    r = estimate_rates(1, 8, 120, HONEST, b"forced", force_plan="comp")
    assert r.force_plan == "comp"
    assert set(r.round_counts) == {"comp"}
    assert r.rates()["freq_comp"][0] == 1.0


def test_estimate_rates_rejects_empty_run():
    with pytest.raises(ValueError):
        estimate_rates(1, 8, 0, HONEST, 1)


@pytest.mark.parametrize("workers", [0, -3])
def test_estimate_rates_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        estimate_rates(1, 8, 10, HONEST, 1, workers=workers)


@pytest.mark.parametrize("L, kappa, sessions", [(0, 8, 10), (-1, 8, 10), (2, 1, 10), (2, 3, 10), (2, 8, 0)])
def test_estimate_rates_rejects_degenerate_sizes(L, kappa, sessions):
    with pytest.raises(ValueError):
        estimate_rates(L, kappa, sessions, HONEST, 1, force_plan="prep:bn")


# -- scaling bench ----------------------------------------------------------------


def test_scaling_bench_shape():
    rep = scaling_bench(6, [1, 2, 4], 2, b"bench-shape")
    assert [row["L"] for row in rep.rows] == [1, 2, 4]
    assert all(row["median_s"] > 0 for row in rep.rows)
    assert len(rep.doubling_ratios) == 2
    assert all(r > 0 for r in rep.doubling_ratios)
    parsed = json.loads(rep.to_json())
    assert parsed["kappa"] == 6 and parsed["sessions_per_l"] == 2


def test_scaling_bench_rejects_bad_grid():
    with pytest.raises(ValueError):
        scaling_bench(6, [4, 2], 2, 0)
    with pytest.raises(ValueError):
        scaling_bench(6, [], 2, 0)
    with pytest.raises(ValueError, match="strictly ascending"):
        scaling_bench(6, [2, 2], 2, 0)


def test_scaling_bench_rejects_no_sessions():
    with pytest.raises(ValueError, match="sessions_per_l"):
        scaling_bench(8, [2], 0, b"x")


# -- CLI ---------------------------------------------------------------------------


def test_cli_run_replays_byte_identical(capsys):
    argv = ["run", "--seed", "deadbeef", "--kappa", "8", "--L", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert json.loads(lines[0])["step"] == "round.plan"
    assert json.loads(lines[-1])["step"] == "session.outcome"
    for line in lines:
        json.loads(line)


def test_cli_run_reports_a_drawn_seed_that_replays(capsys):
    argv = ["run", "--kappa", "8", "--L", "1"]
    assert main(argv) == 0
    drawn = capsys.readouterr()
    (line,) = drawn.err.splitlines()
    assert line.startswith("seed: ")
    assert main([*argv, "--seed", line.removeprefix("seed: ")]) == 0
    replay = capsys.readouterr()
    assert replay.out == drawn.out
    assert replay.err == ""  # a given seed is not echoed


def test_cli_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["run", "--seed", "not-hex"])
    assert e.value.code == 2
    for grid in ("4,2", "2,2"):
        with pytest.raises(SystemExit) as e:
            main(["bench", "--L-grid", grid])
        assert e.value.code == 2


def _cli_error(argv, capsys) -> str:
    """Run argv, expect usage-error exit 2, return the one stderr line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_bad_input_exits_2_with_one_line(tmp_path, capsys):
    assert "sessions" in _cli_error(["stats", "--sessions", "0", "--kappa", "6"], capsys)
    assert "kappa" in _cli_error(["stats", "--kappa", "1", "--sessions", "5"], capsys)
    assert "kappa" in _cli_error(["stats", "--kappa", "3", "--sessions", "5"], capsys)
    assert "L must be" in _cli_error(["run", "--L", "0", "--force-plan", "prep:bn"], capsys)
    assert "L must be" in _cli_error(["run", "--L", "-1"], capsys)
    _cli_error(["amplify", "--config", str(tmp_path / "missing.json")], capsys)
    for bad_seed in ("zz", 7):
        cfg = tmp_path / "bad_seed.json"
        cfg.write_text(json.dumps({"L": 1, "kappa": 8, "N_temp": 10, "seed": bad_seed}))
        _cli_error(["amplify", "--config", str(cfg)], capsys)
    cfg = tmp_path / "not_json.json"
    cfg.write_text("{not json")
    _cli_error(["amplify", "--config", str(cfg)], capsys)
    assert "L must be" in _cli_error(["amplify", "--L", "0", "--n-temp", "10"], capsys)
    assert "kappa" in _cli_error(["bench", "--kappa", "1", "--L-grid", "1,2"], capsys)
    assert "sessions-per-l" in _cli_error(["bench", "--sessions-per-l", "0", "--L-grid", "1"], capsys)
    for workers in ("0", "-3"):
        assert "workers" in _cli_error(["stats", "--workers", workers, "--sessions", "5"], capsys)
    for raw, key in (({"L": "3"}, "L"), ({"kappa": 8.5}, "kappa"), ({"N_temp": 5.5}, "N_temp"),
                     ({"N_rspv": True}, "N_rspv"), ({"win_slack": "0.1"}, "win_slack"), ([1, 2], "object")):
        cfg = tmp_path / "bad_type.json"
        cfg.write_text(json.dumps(raw))
        assert key in _cli_error(["amplify", "--config", str(cfg)], capsys)
    cfg = tmp_path / "unknown_key.json"
    cfg.write_text(json.dumps({"n_temp": 5, "L": 1, "kappa": 8}))  # ran with N_temp=2000
    assert "n_temp" in _cli_error(["amplify", "--config", str(cfg)], capsys)
    for spec, key in (("no_such_strategy", "no_such_strategy"), ('{"atack":"ghz_collapse"}', "atack"),
                      ('{"attack":"phase_offset","G":"bump:3"}', "G"), ("{not json", "--strategy")):
        assert key in _cli_error(["run", "--kappa", "8", "--strategy", spec], capsys)


def test_cli_internal_errors_keep_their_traceback(monkeypatch):
    # only input validation maps to exit 2; a fault inside a command propagates
    import cvqcsim.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "run_pre_rspv", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["run", "--kappa", "6", "--L", "1", "--seed", "00"])


def test_cli_stats_reports_json(capsys):
    argv = [
        "stats", "--sessions", "300", "--kappa", "6", "--L", "1", "--seed", "00" * 32,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["sessions"] == 300
    assert report["seed"] == "00" * 32
    assert "elapsed_s" not in report
    assert main(argv) == 0
    assert capsys.readouterr().out == out  # replayable
    assert main(argv + ["--timing"]) == 0
    assert "elapsed_s" in json.loads(capsys.readouterr().out)


def test_cli_stats_accepts_json_strategy(capsys):
    argv = [
        "stats", "--sessions", "60", "--kappa", "6", "--L", "1",
        "--strategy", '{"attack":"phase_offset","g":"bump:3"}', "--seed", "11" * 32,
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"] == {"attack": "phase_offset", "f": "identity", "g": "bump:3"}


def test_cli_amplify_honest_accepts(capsys):
    argv = [
        "amplify", "--mode", "rspv", "--kappa", "12", "--L", "2",
        "--n-temp", "100", "--seed", "03" * 32,
    ]
    assert main(argv) == 0
    detail = json.loads(capsys.readouterr().out)
    assert detail["accepted"] is True and detail["mode"] == "rspv"
    assert isinstance(detail["thetas"], list) and len(detail["thetas"]) == 2
    assert detail["n_temp"] == 100


def test_cli_amplify_cvqc_mode(capsys):
    argv = [
        "amplify", "--mode", "cvqc", "--kappa", "12", "--L", "2",
        "--n-temp", "100", "--seed", "42" * 32,
    ]
    assert main(argv) == 0
    detail = json.loads(capsys.readouterr().out)
    assert detail["accepted"] is True and detail["mode"] == "cvqc"


def test_cli_amplify_rejects_cheater(capsys):
    argv = [
        "amplify", "--kappa", "8", "--L", "1", "--n-temp", "50",
        "--strategy", "always_lose", "--seed", "aa" * 32,
    ]
    assert main(argv) == 1
    detail = json.loads(capsys.readouterr().out)
    assert detail["accepted"] is False


def test_cli_amplify_config_file(tmp_path, capsys):
    cfg = tmp_path / "amp.json"
    cfg.write_text(json.dumps({
        "L": 2, "kappa": 12, "N_temp": 100, "win_slack": 0.02, "N_rspv": 100,
        "seed": "03" * 32,
    }))
    assert main(["amplify", "--config", str(cfg)]) == 0
    detail = json.loads(capsys.readouterr().out)
    assert detail["accepted"] is True
    assert detail["kappa"] == 12 and detail["L"] == 2 and detail["n_temp"] == 100
    # each flag wins over its config key, and a config key over the default
    cfg.write_text(json.dumps({"L": 1, "kappa": 8, "seed": "01", "N_temp": 5, "N_rspv": 3}))
    argv = ["amplify", "--config", str(cfg), "--L", "3", "--kappa", "10", "--seed", "02", "--n-temp", "7"]
    assert main(argv) in (0, 1)
    detail = json.loads(capsys.readouterr().out)
    assert (detail["L"], detail["kappa"], detail["n_temp"], detail["n_rspv"]) == (3, 10, 7, 3)
    assert detail["seed"] == master_seed_from(bytes.fromhex("02")).hex()


def test_cli_amplify_bad_config_exits_2(capsys):
    assert main(["amplify", "--n-temp", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bench(capsys):
    argv = ["bench", "--kappa", "6", "--L-grid", "1,2", "--sessions-per-l", "1",
            "--seed", "ab" * 32]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["L"] for row in report["rows"]] == [1, 2]


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out
