"""The span wrappers are transparent: same results, same errors, same bytes."""

from __future__ import annotations

import hashlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from pinned import PINNED_DIGESTS  # noqa: E402
from tracer import Tracer, install  # noqa: E402


class Widget:
    def method(self, x):
        return ("method", self, x)

    @classmethod
    def build(cls, x):
        return ("build", cls, x)

    @staticmethod
    def helper(x):
        return ("helper", x)


def _make_module():
    module = types.ModuleType("perfbench_fixture_module")
    exec(
        "def outer(n):\n"
        "    return inner(n) + 1\n"
        "\n"
        "def inner(n):\n"
        "    if n < 0:\n"
        "        raise ValueError('negative')\n"
        "    return n * 2\n",
        module.__dict__,
    )
    return module


def test_method_descriptors_keep_their_behaviour():
    tracer = Tracer()
    originals = {name: Widget.__dict__[name] for name in ("method", "build", "helper")}
    sys.modules[__name__].Widget = Widget
    try:
        install(tracer, f"{__name__}:Widget.method", "w.method")
        install(tracer, f"{__name__}:Widget.build", "w.build")
        install(tracer, f"{__name__}:Widget.helper", "w.helper")
        widget = Widget()
        assert widget.method(3) == ("method", widget, 3)
        assert Widget.build(4) == ("build", Widget, 4)
        assert Widget.helper(5) == ("helper", 5)
        assert isinstance(Widget.__dict__["build"], classmethod)
        assert isinstance(Widget.__dict__["helper"], staticmethod)
    finally:
        for name, value in originals.items():
            setattr(Widget, name, value)
    summary = tracer.summary(wall_s=1.0)
    assert {name: row["calls"] for name, row in summary["layers"].items()} == {
        "w.method": 1, "w.build": 1, "w.helper": 1}


def test_module_function_rebinds_imported_copies_and_nests():
    module = _make_module()
    sys.modules[module.__name__] = module
    holder = types.ModuleType("perfbench_fixture_holder")
    holder.inner = module.inner  # a `from module import inner` copy
    sys.modules[holder.__name__] = holder
    try:
        tracer = Tracer()
        install(tracer, f"{module.__name__}:outer", "outer")
        install(tracer, f"{module.__name__}:inner", "inner")
        assert holder.inner is module.inner
        assert module.outer(5) == 11
        with pytest.raises(ValueError, match="negative"):
            module.outer(-1)
    finally:
        del sys.modules[module.__name__], sys.modules[holder.__name__]
    spans = tracer.spans()
    by_id = {span[0]: span for span in spans}
    inner_spans = [span for span in spans if span[2] == "inner"]
    assert len(inner_spans) == 2
    assert all(by_id[span[1]][2] == "outer" for span in inner_spans)
    summary = tracer.summary(wall_s=1.0)
    outer = summary["layers"]["outer"]
    inner = summary["layers"]["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert 0 < summary["coverage"] <= 1


def test_result_hook_sees_every_result():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda n: list(range(n)), "batch",
                          on_result=lambda t, result: t.count("items", len(result)))
    assert wrapped(3) == [0, 1, 2]
    assert wrapped(4) == [0, 1, 2, 3]
    assert tracer.counters == {"items": 7}


def test_chrome_trace_events_carry_parent_ids():
    tracer = Tracer()
    child = tracer.wrap(lambda: None, "child")
    parent = tracer.wrap(child, "parent")
    parent()
    events = tracer.chrome_trace(pid=1, process_name="test")
    spans = {event["name"]: event for event in events if event["ph"] == "X"}
    assert spans["child"]["args"]["parent"] == spans["parent"]["args"]["id"]
    assert spans["parent"]["args"]["parent"] == 0
    assert spans["child"]["dur"] <= spans["parent"]["dur"]


def _study(tmp_path: Path, name: str, traced: bool) -> str:
    artifact = tmp_path / f"{name}.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "PATH": "/usr/bin:/bin"}
    if traced:
        env["PERFBENCH_TRACE"] = str(tmp_path / f"{name}.summary.json")
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "launch.py"), "study", "--dataset", "korean",
         "--population", "400", "--users", "300", "--days", "10", "--seed", "7",
         "--save", str(artifact)],
        check=True, env=env, cwd=ROOT, capture_output=True, timeout=300,
    )
    return hashlib.sha256(artifact.read_bytes()).hexdigest()


def test_traced_study_is_byte_identical_to_untraced(tmp_path):
    untraced = _study(tmp_path, "plain", traced=False)
    traced = _study(tmp_path, "traced", traced=True)
    assert untraced == traced == PINNED_DIGESTS["korean/seed7/small"]
    import json

    summary = json.loads((tmp_path / "traced.summary.json").read_text())
    for name in ("datasets.korean.build_korean_dataset", "twitter.tweetgen.tweets_for",
                 "storage.tweetstore.insert", "engine.stages.reverse_geocode",
                 "analysis.serialization.save_study"):
        assert summary["layers"][name]["calls"] >= 1, name
    assert summary["coverage"] > 0.9


def test_every_wrapped_path_resolves():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import repro.cli, layers, tracer\n"
        "for entry in layers.SPANS + layers.COUNTED:\n"
        "    tracer._resolve(entry[1])\n" % str(BENCH_DIR)
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
    assert len({name for name, *_ in layers.SPANS + layers.COUNTED}) == len(
        layers.SPANS + layers.COUNTED)
