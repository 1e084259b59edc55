"""Detection-rate and false-positive metrics for campaign results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.devices.world import DamageSeverity
from repro.faults.campaign import CampaignResult
from repro.faults.montecarlo import MonteCarloReport


@dataclass(frozen=True)
class DetectionStats:
    """Summary of one configuration's campaign performance."""

    config: str
    total: int
    detected: int

    @property
    def rate(self) -> float:
        """Detection rate in [0, 1]."""
        return self.detected / self.total if self.total else 0.0

    @property
    def percent(self) -> int:
        """Detection rate as the paper reports it (rounded percent)."""
        return round(self.rate * 100)


def campaign_stats(result: CampaignResult, config: str) -> DetectionStats:
    """Detection stats for one configuration of a campaign run."""
    outcomes = [o for o in result.outcomes if o.config == config]
    return DetectionStats(
        config=config,
        total=len(outcomes),
        detected=sum(1 for o in outcomes if o.detected),
    )


def severity_rows(
    result: CampaignResult, config: str
) -> List[Tuple[str, int, int]]:
    """Table V rows for *config*: (severity, total, detected), in the
    paper's low-to-high order."""
    table = result.by_severity(config)
    rows: List[Tuple[str, int, int]] = []
    for severity in (
        DamageSeverity.LOW,
        DamageSeverity.MEDIUM_LOW,
        DamageSeverity.MEDIUM_HIGH,
        DamageSeverity.HIGH,
    ):
        total, detected = table.get(severity, (0, 0))
        rows.append((severity.value, total, detected))
    return rows


@dataclass(frozen=True)
class ConfusionStats:
    """Confusion matrix of a Monte Carlo mutant sweep."""

    true_positive: int
    false_negative: int
    false_positive: int
    true_negative: int
    detection_rate: float
    false_alarm_rate: float

    @property
    def total(self) -> int:
        """Mutants scored."""
        return (
            self.true_positive
            + self.false_negative
            + self.false_positive
            + self.true_negative
        )

    @property
    def harmful(self) -> int:
        """Mutants whose unmonitored run caused damage."""
        return self.true_positive + self.false_negative

    @property
    def benign(self) -> int:
        """Mutants that changed nothing safety-relevant."""
        return self.false_positive + self.true_negative


def montecarlo_stats(report: MonteCarloReport) -> ConfusionStats:
    """Confusion stats for one Monte Carlo sweep."""
    return ConfusionStats(
        true_positive=report.count("true_positive"),
        false_negative=report.count("false_negative"),
        false_positive=report.count("false_positive"),
        true_negative=report.count("true_negative"),
        detection_rate=report.detection_rate,
        false_alarm_rate=report.false_alarm_rate,
    )


def montecarlo_rows(report: MonteCarloReport) -> List[List[str]]:
    """Confusion-matrix table rows for the CLI / benchmark summaries."""
    stats = montecarlo_stats(report)
    return [
        ["sampled mutants", str(stats.total), "single naive-programmer edits"],
        ["harmful (ground truth)", str(stats.harmful), "unmonitored run caused damage"],
        ["detected (true positives)", str(stats.true_positive), ""],
        ["missed (false negatives)", str(stats.false_negative),
         "sensing gaps: Bug-C-class, arm-arm"],
        ["benign mutants", str(stats.benign), ""],
        ["false alarms", str(stats.false_positive), "paper's claim: zero"],
        ["estimated detection rate", f"{stats.detection_rate * 100:.0f} %",
         "paper's 16-bug estimate: 75 %"],
        ["estimated false-alarm rate", f"{stats.false_alarm_rate * 100:.0f} %",
         "paper: 0 %"],
    ]


def false_positive_check(alerts: Sequence, workflow_completed: bool) -> bool:
    """The paper's no-false-alarms property for one safe run:
    the workflow completed and RABIT raised nothing."""
    return workflow_completed and len(alerts) == 0
