"""CLI argument hygiene for the worker/session knobs, plus `serve` wiring.

``--workers 0`` used to be a silent alias for "one per CPU"; it now has
an explicit spelling (``auto``) and non-positive or garbage counts are
rejected at parse time with exit code 2 — across every subcommand that
grew the knob (montecarlo, campaign) and the serve front-end's
``--sessions``/``--port``.  ``--sessions`` is the service's only load
bound: the sweep-queue flags are gone, and passing one exits 2.
"""

import argparse

import pytest

from repro.cli import _positive_int, _workers_type, main


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code, capsys.readouterr().err


# -- the argparse types -------------------------------------------------------


def test_positive_int_accepts_and_rejects():
    assert _positive_int("3") == 3
    for bad in ("0", "-1", "four", "1.5", ""):
        with pytest.raises(argparse.ArgumentTypeError, match="positive integer"):
            _positive_int(bad)


def test_workers_type_maps_auto_to_engine_sentinel():
    assert _workers_type("auto") == 0
    assert _workers_type("AUTO") == 0
    assert _workers_type(" auto ") == 0
    assert _workers_type("4") == 4
    for bad in ("0", "-2", "garbage"):
        with pytest.raises(argparse.ArgumentTypeError, match="or 'auto'"):
            _workers_type(bad)


# -- rejection at the real parser ---------------------------------------------


@pytest.mark.parametrize("workers", ["0", "-3", "garbage"])
@pytest.mark.parametrize("subcommand", ["montecarlo", "campaign"])
def test_non_positive_workers_exit_2(subcommand, workers, capsys):
    code, err = _exit_code([subcommand, "--workers", workers], capsys)
    assert code == 2
    assert "positive integer or 'auto'" in err


def test_non_positive_montecarlo_samples_exit_2(capsys):
    code, err = _exit_code(["montecarlo", "--samples", "0"], capsys)
    assert code == 2
    assert "positive integer" in err


@pytest.mark.parametrize("flag", ["--sessions", "--port"])
def test_serve_rejects_non_positive_counts(flag, capsys):
    code, err = _exit_code(["serve", flag, "0"], capsys)
    assert code == 2
    assert "positive integer" in err
    code, err = _exit_code(["serve", flag, "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag", ["--queue-size", "--watermark", "--max-batch"])
def test_serve_removed_overload_flags_exit_2(flag, capsys):
    code, err = _exit_code(["serve", flag, "8"], capsys)
    assert code == 2
    assert "unrecognized arguments" in err


def test_serve_subcommand_is_wired(capsys):
    # --help exits 0 and mentions the serve knobs, proving the
    # subparser exists without starting a server.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--sessions" in out and "--socket" in out


# -- non-negative float knobs -------------------------------------------------


def test_nonneg_float_accepts_and_rejects():
    from repro.cli import _nonneg_float

    assert _nonneg_float("0") == 0.0
    assert _nonneg_float("0.015") == 0.015
    assert _nonneg_float("2") == 2.0
    for bad in ("-1", "-0.5"):
        with pytest.raises(argparse.ArgumentTypeError, match="non-negative"):
            _nonneg_float(bad)
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            _nonneg_float(bad)
    with pytest.raises(argparse.ArgumentTypeError, match="non-negative"):
        _nonneg_float("fast")


@pytest.mark.parametrize("value", ["-1", "-0.015", "nan", "inf", "garbage"])
def test_serve_rejects_bad_io_latency(value, capsys):
    code, err = _exit_code(["serve", "--io-latency", value], capsys)
    assert code == 2
    assert "--io-latency" in err


# -- shard flags --------------------------------------------------------------


@pytest.mark.parametrize("flag", ["--shard-workers", "--metrics-port"])
def test_shard_flags_reject_non_positive(flag, capsys):
    code, err = _exit_code(["serve", flag, "0"], capsys)
    assert code == 2
    assert "positive integer" in err


def test_shard_flags_are_wired(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--shard-workers" in out
    assert "--metrics-port" in out
    assert "--obs" in out


def test_metrics_port_requires_shard_mode(capsys):
    # The flag parses, but the single-process path refuses it with the
    # same exit code argparse uses for bad usage.
    code = main(["serve", "--metrics-port", "9115"])
    assert code == 2
    assert "--shard-workers" in capsys.readouterr().err
