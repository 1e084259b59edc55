"""Table I — capabilities of RABIT's three stages.

The paper gives qualitative High/Medium/Low bands per capability axis.
This bench measures the quantitative stage parameters (exploration speed,
positioning precision, result accuracy, damage risk), maps them back to
bands, and regenerates the table.  The timed kernel is one monitored
command on the production deck — the unit of "exploration" the speed axis
counts.
"""


from repro.analysis.report import format_table
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.lab.stage import STAGE_PROFILES, Stage

PAPER_BANDS = {
    "speed": {"simulator": "High", "testbed": "Medium", "production": "Low"},
    "precision": {"simulator": "Low", "testbed": "Medium", "production": "High"},
    "accuracy": {"simulator": "Low", "testbed": "Medium", "production": "High"},
    "risk": {"simulator": "Low", "testbed": "Medium", "production": "High"},
}

AXIS_TITLES = {
    "speed": "Speed of exploration / testing",
    "precision": "Device precision and quality",
    "accuracy": "Accuracy of results",
    "risk": "Risk of damage",
}


def test_table1_regenerates(emit, benchmark):
    rows = []
    for axis in ("speed", "precision", "accuracy", "risk"):
        row = [AXIS_TITLES[axis]]
        for stage in (Stage.SIMULATOR, Stage.TESTBED, Stage.PRODUCTION):
            band = STAGE_PROFILES[stage].band(axis)
            assert band == PAPER_BANDS[axis][stage.value], (axis, stage)
            row.append(band)
        rows.append(row)
    table = format_table(
        ["Capabilities", "Simulator", "Testbed", "Production"],
        rows,
        title="Table I — comparing the capabilities of RABIT's three stages",
    )

    quant_rows = [
        [
            profile.stage.value,
            f"{1.0 / profile.time_scale:.0f}x realtime",
            f"{profile.position_noise_sigma * 1000:.2f} mm",
            f"{profile.result_accuracy * 100:.0f} %",
            f"{profile.damage_cost:g}",
        ]
        for profile in STAGE_PROFILES.values()
    ]
    quant = format_table(
        ["stage", "exploration speed", "position sigma", "result accuracy", "damage cost"],
        quant_rows,
        title="Quantitative stage parameters backing the bands",
    )
    emit("table1_stages", table + "\n\n" + quant)

    # Timed kernel: one guarded command (the unit the speed axis counts).
    deck = build_hein_deck()
    rabit, proxies, _ = make_rabit(deck)

    def one_monitored_command():
        proxies["dosing_device"].open_door()
        proxies["dosing_device"].close_door()

    benchmark(one_monitored_command)
    benchmark.extra_info["paper_bands_reproduced"] = True
