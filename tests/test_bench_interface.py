"""The benchmark's view of the program.

``perfbench/tracer.py`` wraps ``cvqcsim`` functions by module-attribute name,
and ``perfbench`` rebuilds comp-round outputs from their fields.  A refactor
that renames, inlines or reshapes any of these breaks the benchmark but no
other test, so this module drives the tracer itself, unchanged, over one
forced session per round type.
"""

import importlib.util
from pathlib import Path

import cvqcsim
import cvqcsim.harness  # noqa: F401  (imports every layer the tracer patches)
from cvqcsim.adversary import parse_strategy
from cvqcsim.protocol import ROUND_TYPES

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_and_traces_one_session_per_round_type():
    tracer = _load_tracer()(cvqcsim)
    tracer.install()  # raises if a traced name is gone
    try:
        run, honest = cvqcsim.protocol.run_pre_rspv, parse_strategy("honest")
        outs = {plan: run(honest, ("interface", plan), kappa=8, L=2, force_plan=plan) for plan in ROUND_TYPES}
    finally:
        tracer.uninstall()
    assert len(tracer.sessions) == 6
    assert [rt for _, rt, _ in tracer.sessions] == list(ROUND_TYPES)
    assert all(out.flag for out in outs.values())
    # the hot path goes through the traced names, looked up at call time
    spans = tracer.span_counts()
    assert spans["gadget.combine_step"] == spans["tables.build_combine"] > 0
    assert spans["oracle.query"] > 0 and spans["tables.decrypt_row"] > 0
    for counter in ("oracle.prf_misses", "ntcf.prf_calls", "tables.encrypt_calls"):
        assert tracer.counts[counter] > 0, counter

    o = outs["comp"].outputs
    assert o.decoded is not None
    assert type(o)(o.client_thetas, type(o.decoded)(o.decoded.thetas), o.global_phase) == o


def test_session_outcome_fields_live_in_its_dict():
    # perfbench's test stand-in copies an outcome's __dict__ field by field
    out = cvqcsim.protocol.run_pre_rspv(parse_strategy("honest"), ("interface", "dict"), kappa=8, L=2)
    assert set(vars(out)) == {"round_type", "flag", "score", "quiz_delta", "outputs", "transcript"}


def test_report_json_ignores_elapsed_time():
    report = cvqcsim.harness.estimate_rates(1, 8, 20, parse_strategy("honest"), b"interface")
    assert "elapsed_s" not in report.to_dict()
    assert report.to_dict(timing=True)["elapsed_s"] == report.elapsed_s
    later = report._replace(elapsed_s=report.elapsed_s + 1.0)
    assert later.to_json() == report.to_json()
    assert later.to_json(timing=True) != report.to_json(timing=True)
