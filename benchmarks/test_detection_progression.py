"""§IV detection-rate progression and the zero-false-positive property.

Paper: "Initially, RABIT detected 8 of them, resulting in a detection
rate of 50%.  After modifying RABIT, it successfully detected 12
scenarios, resulting in a detection rate of 75%.  With the Extended
Simulator on the side, we were able to detect one more scenario,
improving RABIT's detection rate to 81%. ... throughout testing, RABIT
never produced any false positives."
"""


from repro.analysis.metrics import campaign_stats
from repro.analysis.report import format_table
from repro.faults.campaign import RABIT_CONFIGS
from repro.workflow import run_preset

PAPER_PROGRESSION = {"initial": (8, 50), "modified": (12, 75), "modified_es": (13, 81)}


def test_progression_and_false_positives(emit, campaign_result, benchmark):
    rows = []
    for config, (detected, percent) in PAPER_PROGRESSION.items():
        stats = campaign_stats(campaign_result, config)
        assert stats.detected == detected, config
        assert stats.percent == percent, config
        rows.append(
            [config, f"{stats.detected}/{stats.total}", f"{stats.percent} %",
             f"{detected}/16", f"{percent} %"]
        )
    rendered = format_table(
        ["configuration", "detected", "rate", "paper detected", "paper rate"],
        rows,
        title="Detection-rate progression across RABIT revisions (§IV)",
    )

    # False-positive sweep: every safe workflow under every configuration
    # must complete with zero alerts (the alarm-fatigue property).
    fp_rows = []
    for config, options_factory in RABIT_CONFIGS.items():
        for workflow_name in ("testbed_fig5", "centrifuge"):
            _, ctx, result = run_preset(workflow_name, options=options_factory())
            assert result.completed and ctx.rabit.alert_count == 0, (config, workflow_name)
            fp_rows.append([config, workflow_name, "0 alerts, completed"])
    fp_table = format_table(
        ["configuration", "safe workflow", "outcome"],
        fp_rows,
        title="False-positive sweep: no false alarms in any configuration",
    )
    emit("detection_progression", rendered + "\n\n" + fp_table)

    # Timed kernel: the safe Fig. 5 workflow under modified RABIT.
    def one_safe_run():
        return run_preset("testbed_fig5")[2]

    result = benchmark.pedantic(one_safe_run, rounds=2, iterations=1)
    assert result.completed
    benchmark.extra_info["progression"] = {
        c: f"{d}/16 ({p} %)" for c, (d, p) in PAPER_PROGRESSION.items()
    }
