"""The CLI surface, pinned: every argument of ``build_parser()``.

Each row is (subcommand, option strings, dest, default, choices, nargs),
as recorded before the shared flag groups were factored out, minus the
deleted ``latency --compiled`` (a no-op copy of the default).  A flag
added, dropped or changed anywhere fails here, so the surface only
changes on purpose.
"""

import argparse

from repro.cli import build_parser

SURFACE = [
    ('validate', (), 'config', None, None, None),
    ('scenarios', ('--rules',), 'rules', '', None, None),
    ('campaign', ('--configs',), 'configs', '', None, None),
    ('campaign', ('--workers',), 'workers', 1, None, None),
    ('campaign', ('--trace-dir',), 'trace_dir', '', None, None),
    ('montecarlo', ('--samples',), 'samples', 40, None, None),
    ('montecarlo', ('--seed',), 'seed', 2024, None, None),
    ('montecarlo', ('--workers',), 'workers', 1, None, None),
    ('montecarlo', ('--jsonl',), 'jsonl', '', None, None),
    ('montecarlo', ('--trace-dir',), 'trace_dir', '', None, None),
    ('montecarlo', ('--generator',), 'generator', 'mutant', ('mutant', 'dag'), None),
    ('latency', ('--interpreted',), 'compiled', True, None, 0),
    ('serve', ('--socket',), 'socket', '', None, None),
    ('serve', ('--host',), 'host', '127.0.0.1', None, None),
    ('serve', ('--port',), 'port', 7310, None, None),
    ('serve', ('--sessions',), 'sessions', 32, None, None),
    ('serve', ('--io-latency',), 'io_latency', 0.0, None, None),
    ('serve', ('--shard-workers',), 'shard_workers', None, None, None),
    ('serve', ('--metrics-port',), 'metrics_port', None, None, None),
    ('serve', ('--obs',), 'obs', False, None, 0),
    ('workflow list', ('--steps',), 'steps', False, None, 0),
    ('workflow show', (), 'preset', '', None, '?'),
    ('workflow show', ('--spec',), 'spec', '', None, None),
    ('workflow show', ('--param',), 'param', [], None, None),
    ('workflow run', (), 'preset', '', None, '?'),
    ('workflow run', ('--spec',), 'spec', '', None, None),
    ('workflow run', ('--param',), 'param', [], None, None),
    ('workflow run', ('--unmonitored',), 'unmonitored', False, None, 0),
    ('workflow run', ('--journal',), 'journal', '', None, None),
    ('workflow export', (), 'preset', '', None, '?'),
    ('workflow export', ('--spec',), 'spec', '', None, None),
    ('workflow export', ('--param',), 'param', [], None, None),
    ('workflow export', ('--out',), 'out', 'workflow.spec.json', None, None),
    ('render', ('--lab',), 'lab', 'hein', None, None),
    ('metrics', ('--workload',), 'workload', 'solubility', ('solubility', 'scenarios', 'campaign'), None),
    ('metrics', ('--trace-out',), 'trace_out', 'obs-trace.jsonl', None, None),
    ('metrics', ('--prom-out',), 'prom_out', 'obs-metrics.prom', None, None),
    ('metrics', ('--json-out',), 'json_out', '', None, None),
    ('metrics', ('--top',), 'top', 8, None, None),
    ('record', ('--workload',), 'workload', 'solubility', None, None),
    ('record', ('--param',), 'param', [], None, None),
    ('record', ('--obs',), 'obs', False, None, 0),
    ('record', ('--out',), 'out', 'run.trace.jsonl', None, None),
    ('replay', (), 'traces', None, None, '+'),
    ('replay', ('--diff',), 'diff', False, None, 0),
    ('mine', ('--hein',), 'hein', 5, None, None),
    ('mine', ('--berlinguette',), 'berlinguette', 4, None, None),
    ('mine', ('--min-support',), 'min_support', 4, None, None),
    ('mine', ('--top',), 'top', 15, None, None),
    ('mine', ('--out',), 'out', '', None, None),
]


def _arguments(parser, path=()):
    """Yield ``(path, action)`` for every argument, depth first."""
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _arguments(sub, path + (name,))
            continue
        yield " ".join(path), action


def _row(path, action):
    choices = None if action.choices is None else tuple(action.choices)
    return (
        path, tuple(action.option_strings), action.dest, action.default,
        choices, action.nargs,
    )


def test_every_argument_matches_the_recorded_surface():
    rows = [_row(path, action) for path, action in _arguments(build_parser())]
    assert len(rows) == len(SURFACE) == 50
    assert sorted(rows, key=repr) == sorted(SURFACE, key=repr)


def test_shared_flags_are_declared_once():
    """Each shared flag is one argparse action, reused by every
    subcommand that takes it (declared once, in a parent parser)."""
    by_dest = {}
    for path, action in _arguments(build_parser()):
        by_dest.setdefault(action.dest, {})[path] = action
    shared = {
        "workers": {"campaign", "montecarlo"},
        "trace_dir": {"campaign", "montecarlo"},
        "param": {"record", "workflow show", "workflow run", "workflow export"},
        "preset": {"workflow show", "workflow run", "workflow export"},
        "spec": {"workflow show", "workflow run", "workflow export"},
    }
    for dest, paths in shared.items():
        actions = by_dest[dest]
        assert set(actions) == paths, dest
        assert len({id(action) for action in actions.values()}) == 1, dest
