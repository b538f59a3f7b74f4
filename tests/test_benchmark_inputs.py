"""Guard for the benchmark's inputs: ``perfbench/plan.py`` writes the run
files and ``--set`` overrides that the benchmark runs, from outside the
package.  A run file may set only the keys in ``flowcond.persist.KEYS``,
so a key that the table drops or renames would make each run that sets it
exit 2.  These tests write a quick round of each workload and require that
every key it sets is one the table accepts."""

import configparser
import importlib.util
import sys
from pathlib import Path

import pytest

from flowcond.persist import KEYS


def load_plan(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "plan.py"
    spec = importlib.util.spec_from_file_location("perfbench_plan", path)
    plan = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, plan)
    spec.loader.exec_module(plan)
    return plan


def set_keys(argv):
    """(section, key) of each ``--set section.key=value`` in ``argv``."""
    targets = [argv[i + 1].partition("=")[0] for i, arg in enumerate(argv)
               if arg == "--set"]
    return {tuple(target.split(".", 1)) for target in targets}


@pytest.mark.parametrize("workload", ["mixture2d", "blobs64"])
def test_plan_sets_only_table_keys(tmp_path, monkeypatch, workload):
    plan = load_plan(monkeypatch)
    round_ = plan.make_plan(workload, 3, tmp_path, quick=True).round
    configs = sorted((tmp_path / "cfg").glob("*.cfg"))
    assert len(configs) == 7
    pairs = set()
    for path in configs:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path, encoding="ascii")
        pairs |= {(s, k) for s in parser.sections() for k in parser.options(s)}
    overrides = set().union(*(set_keys(inv.argv) for inv in round_))
    assert {("run", "task"), ("train", "sigma")} <= pairs
    assert {("run", "output_dir"), ("observe", "index")} <= overrides
    assert (pairs | overrides) - set(KEYS) == set()
