"""tools/bench_order5.py: the per-layer split of a campaign run in process
matches the campaign's pin, accounts for all of its wall time and leaves
the wrapped functions as it found them, and a rerun of some scopes writes
every other entry back as it was."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from posemi import cli

from second_methods import pins

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_order5.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_order5", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_attributes(tool):
    """Every module attribute the split patches, by its "module.function"."""
    out = {}
    for layers in tool.LAYERS.values():
        for name in layers:
            module, attr = name.split(".")
            out[name] = getattr(importlib.import_module(f"posemi.{module}"), attr)
    return out


@pytest.mark.parametrize(
    "command",
    [
        "verify theorem1 --max-order 4 --dedup iso",
        "verify theorem2 --max-order 4 --dedup none",
        "verify remark --max-order 4 --dedup iso",
        "enumerate --kind ordered --order 4 --dedup iso",
    ],
    ids=["theorem1", "theorem2", "remark", "enumerate"],
)
def test_split_of_an_order_four_campaign(tool, command):
    pin = pins("streams")[command]
    originals = wrapped_attributes(tool)
    argv = command.split()
    wall, spent = tool.split(argv, pin)
    assert set(spent) == {*tool.LAYERS[tool.scope(argv)].values(), "other"}
    assert all(seconds >= 0 for seconds in spent.values()), spent
    assert sum(spent.values()) == pytest.approx(wall)
    after = wrapped_attributes(tool)
    assert all(after[name] is fn for name, fn in originals.items())


def test_split_fails_on_a_wrong_pin(tool, capsys):
    argv = ["verify", "theorem1", "--max-order", "2"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    sha256 = hashlib.sha256(out.encode()).hexdigest()
    pin = {"summary": out.splitlines()[-1], "sha256": sha256}
    lines = {"lines": out.count("\n"), "sha256": sha256}
    originals = wrapped_attributes(tool)
    wrongs = [
        {**pin, "sha256": "0" * 64},
        {**pin, "summary": "# checked=20 failures=0"},
        {**lines, "lines": lines["lines"] - 1},
    ]
    for wrong in wrongs:
        with pytest.raises(SystemExit, match="stream changed"):
            tool.split(argv, wrong)
        after = wrapped_attributes(tool)
        assert all(after[name] is fn for name, fn in originals.items())
    tool.split(argv, pin)
    tool.split(argv, lines)


def test_rerun_of_named_scopes_keeps_the_other_entries(tool, tmp_path, monkeypatch):
    committed = (TOOL.parents[1] / "BENCH_order5.json").read_text()
    out = tmp_path / "BENCH_order5.json"
    out.write_text(committed)
    monkeypatch.setattr(tool, "OUT", out)
    ran = []
    monkeypatch.setattr(
        tool, "end_to_end", lambda argv, *pins: ran.append(argv) or [1.0]
    )
    monkeypatch.setattr(tool, "split", lambda argv, *pins: (2.0, {"other": 2.0}))
    assert tool.main(["theorem1", "remark"]) == 0
    assert [argv[1] for argv in ran] == ["theorem1", "remark"]
    old = json.loads(committed)["campaigns"]
    new = json.loads(out.read_text())["campaigns"]
    assert [c["command"] for c in new] == [c["command"] for c in old]
    for was, now in zip(old, new):
        if now["command"].split()[2] in ("theorem1", "remark"):
            assert now["before"] == was["before"]
            assert now["after"]["end_to_end_s"] == 1.0
        else:
            assert now == was
    # with the rerun entries put back, the file is the committed one, byte
    # for byte: the other entries were written as they were read
    rerun = {c["command"]: c for c in old if c["command"].split()[2] != "theorem2"}
    back = [rerun.get(c["command"], c) for c in new]
    assert json.dumps({"campaigns": back}, indent=2) + "\n" == committed
    with pytest.raises(SystemExit, match="usage"):
        tool.main(["theorem3"])
