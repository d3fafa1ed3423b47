"""Tier-1 gate and unit tests for reprolint (``repro.lint``).

Three layers:

* per-rule fixtures — every rule in the pack has one snippet it must flag
  and one it must leave alone,
* framework behaviour — suppression comments, pyproject config (excludes,
  severity overrides, select/ignore, rule options), CLI formats/exit codes,
* the repo gate — linting ``src/`` at HEAD must come back clean, so any
  new determinism or paper-invariant violation fails tier-1.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
import repro.cli
from repro.errors import ConfigurationError
from repro.lint import (
    Diagnostic,
    LintConfig,
    Severity,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    path_matches,
)
from repro.lint.cli import main as reprolint_main
from repro.lint.config import _parse_minimal_toml, load_pyproject_table
from repro.lint.suppress import parse_suppressions

SRC_DIR = Path(repro.__file__).resolve().parents[1]
REPO_ROOT = SRC_DIR.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"


def rule_ids(diagnostics) -> set:
    return {diagnostic.rule_id for diagnostic in diagnostics}


# One (flagging_path, bad_source, clean_source) triple per rule.  The clean
# snippet is linted at the same path, so it exercises the rule itself rather
# than the path scoping.
RULE_FIXTURES = {
    "RNG001": (
        "repro/sim/backoff.py",
        "import random\n",
        "from repro.rng import StreamFactory\n\n__all__ = []\n",
    ),
    "RNG002": (
        "repro/sim/backoff.py",
        "import numpy as np\n\nrng = np.random.default_rng(7)\n",
        (
            "import numpy as np\n\n\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n\n\n"
            "__all__ = ['draw']\n"
        ),
    ),
    "DET001": (
        "repro/sim/engine.py",
        "import time\n\nstart = time.time()\n",
        "def advance(slot: int) -> int:\n    return slot + 1\n\n\n__all__ = ['advance']\n",
    ),
    "DET002": (
        "repro/metrics/rollup.py",
        "result = [n * 2 for n in {3, 1, 2}]\n",
        "result = [n * 2 for n in sorted({3, 1, 2})]\n",
    ),
    "INV001": (
        "repro/spectrum/sensing.py",
        "BETA_COEFF = 3.6275987284684357\n",
        "import math\n\nSQRT3 = math.sqrt(3.0)\n",
    ),
    "INV002": (
        "repro/spectrum/sir.py",
        "def check(x: float) -> bool:\n    return x == 0.0\n\n\n__all__ = ['check']\n",
        (
            "def check(count: int) -> bool:\n"
            "    return count == 0\n\n\n__all__ = ['check']\n"
        ),
    ),
    "API001": (
        "repro/sim/policies.py",
        "def act(history=[]):\n    return history\n\n\n__all__ = ['act']\n",
        "def act(history=None):\n    return history or []\n\n\n__all__ = ['act']\n",
    ),
    "API002": (
        "repro/sim/policies.py",
        (
            "def guard():\n    try:\n        return 1\n"
            "    except:\n        return 0\n\n\n__all__ = ['guard']\n"
        ),
        (
            "def guard():\n    try:\n        return 1\n"
            "    except ValueError:\n        return 0\n\n\n__all__ = ['guard']\n"
        ),
    ),
    "API003": (
        "repro/metrics/summary.py",
        "__all__ = ['gone']\n\n\ndef present() -> int:\n    return 1\n",
        "__all__ = ['present']\n\n\ndef present() -> int:\n    return 1\n",
    ),
    "OBS001": (
        "repro/experiments/progress_report.py",
        "import time\n\nstart = time.perf_counter()\n",
        (
            "from repro.obs.clock import monotonic_s\n\n"
            "start = monotonic_s()\n\n__all__ = []\n"
        ),
    ),
    "OBS002": (
        "repro/service/metrics_shim.py",
        (
            "import repro.obs as obs\n\n\n"
            "def count(name: str) -> None:\n"
            "    obs.counter_add(f'service.{name}')\n\n\n"
            "__all__ = ['count']\n"
        ),
        (
            "import repro.obs as obs\n\n"
            "_METRICS = {'admitted': 'service.jobs_admitted'}\n\n\n"
            "def count(name: str) -> None:\n"
            "    obs.counter_add(_METRICS[name])\n"
            "    obs.counter_add('service.requests')\n\n\n"
            "__all__ = ['count']\n"
        ),
    ),
    "PERF001": (
        "repro/perf/fanout.py",
        (
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def fan_out(items):\n"
            "    def work(item):\n"
            "        return item * 2\n\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [f.result() for f in "
            "[pool.submit(work, i) for i in items]]\n\n\n"
            "__all__ = ['fan_out']\n"
        ),
        (
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def work(item):\n"
            "    return item * 2\n\n\n"
            "def fan_out(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [f.result() for f in "
            "[pool.submit(work, i) for i in items]]\n\n\n"
            "__all__ = ['work', 'fan_out']\n"
        ),
    ),
    "ROB001": (
        "repro/harness/cleanup.py",
        (
            "def release(handles):\n"
            "    for handle in handles:\n"
            "        try:\n"
            "            handle.close()\n"
            "        except Exception:\n"
            "            pass\n\n\n"
            "__all__ = ['release']\n"
        ),
        (
            "def release(handles):\n"
            "    for handle in handles:\n"
            "        try:\n"
            "            handle.close()\n"
            "        except OSError:\n"
            "            pass\n\n\n"
            "__all__ = ['release']\n"
        ),
    ),
    "ROB002": (
        "repro/harness/waiting.py",
        (
            "import time\n\n\n"
            "def wait_until(check):\n"
            "    while not check():\n"
            "        time.sleep(0.1)\n\n\n"
            "__all__ = ['wait_until']\n"
        ),
        (
            "from repro.obs.clock import sleep_s\n\n\n"
            "def wait_until(check, sleep=sleep_s):\n"
            "    while not check():\n"
            "        sleep(0.1)\n\n\n"
            "__all__ = ['wait_until']\n"
        ),
    ),
    "ROB003": (
        "repro/experiments/export.py",
        (
            "import json\n"
            "import os\n\n\n"
            "def save(path, payload):\n"
            "    tmp = str(path) + '.tmp'\n"
            "    with open(tmp, 'w') as handle:\n"
            "        handle.write(json.dumps(payload))\n"
            "    os.replace(tmp, path)\n\n\n"
            "__all__ = ['save']\n"
        ),
        (
            "import json\n\n"
            "from repro.storage import atomic_write_text\n\n\n"
            "def save(path, payload):\n"
            "    atomic_write_text(path, json.dumps(payload))\n\n\n"
            "__all__ = ['save']\n"
        ),
    ),
    "RNG010": (
        "repro/sim/nodes.py",
        (
            "def sense(streams):\n"
            "    return streams.stream('shared')\n\n\n"
            "def transmit(streams):\n"
            "    return streams.stream('shared')\n\n\n"
            "__all__ = ['sense', 'transmit']\n"
        ),
        (
            "def sense(streams):\n"
            "    return streams.stream('sense')\n\n\n"
            "def transmit(streams):\n"
            "    return streams.stream('transmit')\n\n\n"
            "__all__ = ['sense', 'transmit']\n"
        ),
    ),
    "RNG011": (
        "repro/sim/naming.py",
        (
            "import os\n\n\n"
            "def pick(streams):\n"
            "    label = os.environ.get('LABEL', 'x')\n"
            "    return streams.stream(label)\n\n\n"
            "__all__ = ['pick']\n"
        ),
        (
            "def pick(streams, label):\n"
            "    return streams.stream(label)\n\n\n"
            "__all__ = ['pick']\n"
        ),
    ),
    "RNG012": (
        "repro/sim/reps.py",
        (
            "def run(streams, reps):\n"
            "    draws = []\n"
            "    for rep in range(reps):\n"
            "        draws.append(streams.stream('noise'))\n"
            "    return draws\n\n\n"
            "__all__ = ['run']\n"
        ),
        (
            "def run(streams, reps):\n"
            "    draws = []\n"
            "    for rep in range(reps):\n"
            "        draws.append(streams.stream(f'noise-{rep}'))\n"
            "    return draws\n\n\n"
            "__all__ = ['run']\n"
        ),
    ),
    "PERF002": (
        "repro/perf/workers.py",
        (
            "from repro.harness import WorkerSupervisor\n\n"
            "_CURRENT = None\n\n\n"
            "def set_current(value):\n"
            "    global _CURRENT\n"
            "    _CURRENT = value\n\n\n"
            "def work(item):\n"
            "    return (_CURRENT, item)\n\n\n"
            "def launch(items):\n"
            "    supervisor = WorkerSupervisor(2)\n"
            "    return supervisor.run(work, items)\n\n\n"
            "__all__ = ['set_current', 'work', 'launch']\n"
        ),
        (
            "from repro.harness import WorkerSupervisor\n\n"
            "SCALE = 2.0\n\n\n"
            "def work(item):\n"
            "    return SCALE * item\n\n\n"
            "def launch(items):\n"
            "    supervisor = WorkerSupervisor(2)\n"
            "    return supervisor.run(work, items)\n\n\n"
            "__all__ = ['work', 'launch']\n"
        ),
    ),
    "DET003": (
        "repro/obs/publish.py",
        (
            "from repro.obs import merge_snapshot\n\n\n"
            "def collect(metrics):\n"
            "    payload = {}\n"
            "    for name in metrics.keys():\n"
            "        payload[name] = metrics[name]\n"
            "    return payload\n\n\n"
            "def publish(metrics):\n"
            "    return merge_snapshot(collect(metrics))\n\n\n"
            "__all__ = ['collect', 'publish']\n"
        ),
        (
            "from repro.obs import merge_snapshot\n\n\n"
            "def collect(metrics):\n"
            "    payload = {}\n"
            "    for name in sorted(metrics):\n"
            "        payload[name] = metrics[name]\n"
            "    return payload\n\n\n"
            "def publish(metrics):\n"
            "    return merge_snapshot(collect(metrics))\n\n\n"
            "__all__ = ['collect', 'publish']\n"
        ),
    ),
    "SUP001": (
        "repro/sim/tidy.py",
        "x = 1  # reprolint: disable=DET002 -- nothing here needs it\n",
        "vals = [n for n in {1, 2}]  # reprolint: disable=DET002 -- tiny fixed set\n",
    ),
}

# Rules whose fixtures need a non-default config (SUP001 only reports in
# strict runs).
RULE_FIXTURE_CONFIGS = {
    "SUP001": lambda: LintConfig(strict=True),
}


def fixture_config(rule_id):
    factory = RULE_FIXTURE_CONFIGS.get(rule_id)
    return factory() if factory else None


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_positive_fixture_fires(self, rule_id):
        path, bad, _ = RULE_FIXTURES[rule_id]
        diagnostics = lint_source(bad, path=path, config=fixture_config(rule_id))
        assert rule_id in rule_ids(diagnostics), (
            f"{rule_id} should flag:\n{bad}"
        )
        finding = next(d for d in diagnostics if d.rule_id == rule_id)
        assert finding.line >= 1
        assert finding.path == path

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_negative_fixture_clean(self, rule_id):
        path, _, good = RULE_FIXTURES[rule_id]
        diagnostics = lint_source(good, path=path, config=fixture_config(rule_id))
        assert rule_id not in rule_ids(diagnostics), (
            f"{rule_id} should not flag:\n{good}"
        )

    def test_every_registered_rule_has_fixtures(self):
        assert {rule.id for rule in all_rules()} == set(RULE_FIXTURES)

    def test_rng002_flags_numpy_random_import(self):
        diagnostics = lint_source(
            "from numpy.random import default_rng\n", path="repro/sim/x.py"
        )
        assert "RNG002" in rule_ids(diagnostics)

    def test_rng_rules_allow_repro_rng_package(self):
        source = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
        assert "RNG002" in rule_ids(lint_source(source, path="repro/sim/x.py"))
        assert "RNG002" not in rule_ids(
            lint_source(source, path="repro/rng/streams.py")
        )

    def test_det001_only_fires_in_hot_paths(self):
        source = "import time\n\nstamp = time.time()\n"
        assert "DET001" in rule_ids(lint_source(source, path="repro/sim/x.py"))
        assert "DET001" not in rule_ids(
            lint_source(source, path="repro/experiments/report.py")
        )

    def test_obs001_allows_the_clock_facade(self):
        source = "import time\n\n\ndef monotonic_s() -> float:\n    return time.perf_counter()\n\n\n__all__ = ['monotonic_s']\n"
        assert "OBS001" in rule_ids(
            lint_source(source, path="repro/experiments/x.py")
        )
        assert "OBS001" not in rule_ids(
            lint_source(source, path="repro/obs/clock.py")
        )

    def test_obs001_flags_from_time_imports(self):
        assert "OBS001" in rule_ids(
            lint_source(
                "from time import perf_counter\n", path="repro/viz/timing.py"
            )
        )

    def test_api003_tolerates_pep562_lazy_exports(self):
        source = (
            "__all__ = ['lazy']\n\n\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        )
        assert "API003" not in rule_ids(
            lint_source(source, path="repro/metrics/summary.py")
        )

    def test_det002_flags_order_sensitive_wrappers(self):
        assert "DET002" in rule_ids(
            lint_source("order = list(set([3, 1, 2]))\n", path="repro/a.py")
        )
        assert "DET002" in rule_ids(
            lint_source("for x in {1, 2}:\n    pass\n", path="repro/a.py")
        )
        assert "DET002" not in rule_ids(
            lint_source("order = sorted(set([3, 1, 2]))\n", path="repro/a.py")
        )

    def test_inv001_catches_truncated_constant_copies(self):
        diagnostics = lint_source("S = 1.7320508\n", path="repro/core/x.py")
        assert "INV001" in rule_ids(diagnostics)

    def test_inv001_allows_canonical_modules(self):
        source = "C = 0.8660254037844386\n"
        assert "INV001" not in rule_ids(
            lint_source(source, path="repro/core/pcr.py")
        )

    def test_inv002_scoped_to_numeric_layers(self):
        source = "flag = 1.0 == 2.0\n"
        assert "INV002" in rule_ids(
            lint_source(source, path="repro/geometry/distance.py")
        )
        assert "INV002" not in rule_ids(
            lint_source(source, path="repro/experiments/runner.py")
        )

    def test_api003_missing_all_and_init_exemption(self):
        source = "def helper() -> int:\n    return 1\n"
        assert "API003" in rule_ids(lint_source(source, path="repro/util.py"))
        # __init__.py re-export lists are deliberate; only dangling names count.
        assert "API003" not in rule_ids(
            lint_source("from repro.errors import ReproError\n", path="repro/__init__.py")
        )
        assert "API003" in rule_ids(
            lint_source("__all__ = ['missing']\n", path="repro/__init__.py")
        )

    def test_syntax_error_reported_as_parse_diagnostic(self):
        diagnostics = lint_source("def broken(:\n", path="repro/x.py")
        assert [d.rule_id for d in diagnostics] == ["PARSE"]
        assert diagnostics[0].severity is Severity.ERROR

    def test_rob001_flags_bare_except_with_pass(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n\n__all__ = []\n"
        assert "ROB001" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob001_flags_base_exception_in_tuple(self):
        source = (
            "try:\n    x = 1\n"
            "except (ValueError, BaseException):\n    ...\n\n__all__ = []\n"
        )
        assert "ROB001" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob001_allows_broad_handler_that_acts(self):
        source = (
            "try:\n    x = 1\n"
            "except Exception as exc:\n    raise RuntimeError(str(exc))\n\n"
            "__all__ = []\n"
        )
        assert "ROB001" not in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob001_suppressible_on_the_pass_line(self):
        source = (
            "try:\n    x = 1\n"
            "except Exception:\n"
            "    pass  # reprolint: disable=ROB001 -- last-ditch cleanup\n\n"
            "__all__ = []\n"
        )
        assert "ROB001" not in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob002_flags_from_import_sleep_alias(self):
        source = (
            "from time import sleep as snooze\n\n\n"
            "def retry(fn):\n"
            "    for _ in range(3):\n"
            "        snooze(1.0)\n"
            "    return fn()\n\n\n"
            "__all__ = ['retry']\n"
        )
        assert "ROB002" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob002_flags_wall_clock_deadline_loop(self):
        source = (
            "import time\n\n\n"
            "def wait(deadline):\n"
            "    while time.monotonic() < deadline:\n"
            "        pass\n\n\n"
            "__all__ = ['wait']\n"
        )
        assert "ROB002" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob002_exempts_the_clock_facade(self):
        source = "import time\n\ntime.sleep(0.0)\n\n__all__ = []\n"
        assert "ROB002" not in rule_ids(
            lint_source(source, path="repro/obs/clock.py")
        )
        assert "ROB002" in rule_ids(lint_source(source, path="repro/cli.py"))

    def test_rob003_flags_from_import_rename_alias(self):
        source = (
            "from os import rename as mv\n\n\n"
            "def save(path, text):\n"
            "    with open(str(path) + '.tmp', 'w') as handle:\n"
            "        handle.write(text)\n"
            "    mv(str(path) + '.tmp', path)\n\n\n"
            "__all__ = ['save']\n"
        )
        assert "ROB003" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob003_flags_tempfile_file_factories(self):
        source = (
            "import tempfile\n\n\n"
            "def scratch():\n"
            "    return tempfile.mkstemp()\n\n\n"
            "__all__ = ['scratch']\n"
        )
        assert "ROB003" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob003_allows_scratch_directories(self):
        source = (
            "import tempfile\n\n\n"
            "def scratch():\n"
            "    return tempfile.mkdtemp()\n\n\n"
            "__all__ = ['scratch']\n"
        )
        assert "ROB003" not in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob003_exempts_the_storage_module(self):
        source = "import os\n\nos.replace('a', 'b')\n\n__all__ = []\n"
        assert "ROB003" not in rule_ids(
            lint_source(source, path="repro/storage.py")
        )
        assert "ROB003" in rule_ids(
            lint_source(source, path="repro/obs/tracing.py")
        )

    def test_rob002_allows_injected_sleep(self):
        source = (
            "from repro.obs.clock import sleep_s\n\n\n"
            "def retry(fn, sleep=sleep_s):\n"
            "    for attempt in range(3):\n"
            "        sleep(0.5 * 2 ** attempt)\n"
            "    return fn()\n\n\n"
            "__all__ = ['retry']\n"
        )
        assert "ROB002" not in rule_ids(lint_source(source, path="repro/x.py"))


class TestSuppressions:
    def test_same_line_disable(self):
        path, bad, _ = RULE_FIXTURES["INV002"]
        suppressed = bad.replace(
            "x == 0.0",
            "x == 0.0  # reprolint: disable=INV002 -- exact-zero guard",
        )
        assert "INV002" not in rule_ids(lint_source(suppressed, path=path))

    def test_standalone_comment_covers_next_line(self):
        source = (
            "# reprolint: disable=INV001 -- fixture constant\n"
            "BETA_COEFF = 3.6275987284684357\n"
        )
        assert "INV001" not in rule_ids(
            lint_source(source, path="repro/spectrum/x.py")
        )

    def test_file_level_disable(self):
        source = (
            "# reprolint: disable-file=DET002\n"
            "a = list(set([1, 2]))\n"
            "b = list(set([3, 4]))\n"
        )
        assert "DET002" not in rule_ids(lint_source(source, path="repro/a.py"))

    def test_disable_all(self):
        source = "import random  # reprolint: disable=all\n"
        assert lint_source(source, path="repro/sim/a.py") == []

    def test_unrelated_rule_still_fires(self):
        source = "import random  # reprolint: disable=DET002\n"
        assert "RNG001" in rule_ids(lint_source(source, path="repro/sim/a.py"))

    def test_marker_inside_string_is_ignored(self):
        source = (
            "note = '# reprolint: disable=RNG001'\nimport random\n"
        )
        assert "RNG001" in rule_ids(lint_source(source, path="repro/sim/a.py"))

    def test_parse_suppressions_index(self):
        index = parse_suppressions(
            "x = 1  # reprolint: disable=INV002, DET002\n"
        )
        assert index.is_suppressed("INV002", 1)
        assert index.is_suppressed("DET002", 1)
        assert not index.is_suppressed("INV002", 2)
        assert not index.is_suppressed("RNG001", 1)


class TestConfig:
    def write_pyproject(self, tmp_path: Path, body: str) -> Path:
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(body, encoding="utf-8")
        return pyproject

    def test_excludes_respected(self, tmp_path):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("import random\n", encoding="utf-8")
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "old.py").write_text("import random\n", encoding="utf-8")
        pyproject = self.write_pyproject(
            tmp_path,
            "[tool.reprolint]\nexclude = [\"legacy/*\"]\n",
        )
        config = LintConfig.from_pyproject(pyproject)
        report = lint_paths([tmp_path], config)
        assert report.files_checked == 1
        assert {d.rule_id for d in report.diagnostics} >= {"RNG001"}
        assert all("legacy" not in d.path for d in report.diagnostics)

    def test_severity_override_and_fail_on(self, tmp_path):
        pyproject = self.write_pyproject(
            tmp_path,
            "[tool.reprolint]\nfail_on = \"error\"\n\n"
            "[tool.reprolint.severity]\nDET002 = \"info\"\n",
        )
        config = LintConfig.from_pyproject(pyproject)
        diagnostics = lint_source(
            "a = list(set([1, 2]))\n", path="repro/a.py", config=config
        )
        assert [d.severity for d in diagnostics] == [Severity.INFO]
        report = lint_paths([], config)
        report.diagnostics.extend(diagnostics)
        assert not report.failed(config.fail_on)

    def test_select_and_ignore(self):
        config = LintConfig(select=["RNG001"])
        source = "import random\n\nimport time\n\nstart = time.time()\n"
        assert rule_ids(lint_source(source, "repro/sim/a.py", config)) == {"RNG001"}
        config = LintConfig(ignore=["RNG001"])
        assert "RNG001" not in rule_ids(
            lint_source(source, "repro/sim/a.py", config)
        )

    def test_rule_option_override(self, tmp_path):
        pyproject = self.write_pyproject(
            tmp_path,
            "[tool.reprolint]\n\n"
            "[tool.reprolint.rules.RNG002]\nallow = [\"repro/legacy/*\"]\n",
        )
        config = LintConfig.from_pyproject(pyproject)
        source = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
        assert "RNG002" not in rule_ids(
            lint_source(source, "repro/legacy/x.py", config)
        )
        # The built-in allow list was *replaced*, so repro/rng now flags.
        assert "RNG002" in rule_ids(
            lint_source(source, "repro/rng/streams.py", config)
        )

    def test_minimal_toml_parser_parity(self):
        body = (
            "[tool.reprolint]\n"
            "exclude = [\"a/*\", \"b/*\"]\n"
            "fail_on = \"error\"\n"
            "[tool.reprolint.severity]\n"
            "DET002 = \"info\"\n"
            "[tool.reprolint.rules.RNG002]\n"
            "allow = [\"x/*\"]\n"
        )
        parsed = _parse_minimal_toml(body)["tool"]["reprolint"]
        assert parsed["exclude"] == ["a/*", "b/*"]
        assert parsed["fail_on"] == "error"
        assert parsed["severity"]["DET002"] == "info"
        assert parsed["rules"]["RNG002"]["allow"] == ["x/*"]

    def test_path_matches_suffix_semantics(self):
        assert path_matches("src/repro/rng/streams.py", ["repro/rng/*"])
        assert path_matches("repro/rng/streams.py", ["repro/rng/*"])
        assert not path_matches("src/repro/sim/engine.py", ["repro/rng/*"])

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            Severity.from_name("fatal")

    def test_repo_pyproject_table_loads(self):
        table = load_pyproject_table(PYPROJECT)
        assert "exclude" in table


class TestFrameworkApi:
    def test_get_rule_roundtrip(self):
        assert get_rule("RNG001").name == "random-module"
        with pytest.raises(ConfigurationError):
            get_rule("NOPE999")

    def test_diagnostic_dict_and_human_formats(self):
        diagnostic = Diagnostic(
            rule_id="RNG001",
            path="repro/a.py",
            line=3,
            col=4,
            severity=Severity.ERROR,
            message="nope",
        )
        assert diagnostic.format_human() == "repro/a.py:3:4: RNG001 error: nope"
        assert diagnostic.as_dict()["severity"] == "error"

    def test_lint_is_deterministic(self, tmp_path):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "a.py").write_text(
            "import random\nimport time\n\nstart = time.time()\n",
            encoding="utf-8",
        )
        (package / "b.py").write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        first = [d.as_dict() for d in lint_paths([tmp_path]).diagnostics]
        second = [d.as_dict() for d in lint_paths([tmp_path]).diagnostics]
        assert first == second
        locations = [(d["path"], d["line"], d["col"]) for d in first]
        assert locations == sorted(locations), "diagnostics come out sorted"


class TestCli:
    def test_json_output_and_exit_code(self, tmp_path, capsys):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("import random\n", encoding="utf-8")
        code = reprolint_main(["--format", "json", str(tmp_path)])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 1
        assert payload["files_checked"] == 1
        assert payload["diagnostics"][0]["rule"] == "RNG001"
        assert payload["diagnostics"][0]["line"] == 1

    def test_human_output_contains_location(self, tmp_path, capsys):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "bad.py").write_text(
            "def f(x=[]):\n    return x\n", encoding="utf-8"
        )
        code = reprolint_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad.py:1:" in out
        assert "API001" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "ok.py").write_text(
            "__all__ = ['f']\n\n\ndef f() -> int:\n    return 1\n",
            encoding="utf-8",
        )
        assert reprolint_main([str(tmp_path)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert reprolint_main([str(tmp_path / "nope")]) == 2

    def test_exclude_override_relints_excluded_tree(self, tmp_path, capsys):
        """`--exclude ""` drops the config excludes (relaxed CI profile)."""
        (tmp_path / "pyproject.toml").write_text(
            '[tool.reprolint]\nexclude = ["bench/*"]\n', encoding="utf-8"
        )
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "b.py").write_text("import random\n", encoding="utf-8")
        config_args = ["--config", str(tmp_path / "pyproject.toml"), "--no-cache"]
        assert reprolint_main(config_args + [str(bench)]) == 0
        assert (
            reprolint_main(config_args + ["--exclude", "", str(bench)]) == 1
        )

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_class in all_rules():
            assert rule_class.id in out

    def test_ignore_flag(self, tmp_path, capsys):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "bad.py").write_text(
            "def f(x=[]):\n    return x\n\n\n__all__ = ['f']\n", encoding="utf-8"
        )
        assert reprolint_main(["--ignore", "API001", str(tmp_path)]) == 0


class TestRepoGate:
    """The tier-1 contract: the repo itself lints clean, violations fail."""

    def test_src_tree_is_lint_clean(self, capsys):
        code = reprolint_main(["--config", str(PYPROJECT), str(SRC_DIR)])
        out = capsys.readouterr().out
        assert code == 0, f"reprolint found violations in src/:\n{out}"

    def test_addc_repro_lint_subcommand(self, capsys):
        code = repro.cli.main(
            ["lint", "--config", str(PYPROJECT), str(SRC_DIR)]
        )
        assert code == 0
        assert "finding(s)" in capsys.readouterr().out

    def test_introduced_violation_fails(self, tmp_path, capsys):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        clean = SRC_DIR / "repro" / "sim" / "packet.py"
        (package / "packet.py").write_text(
            clean.read_text(encoding="utf-8")
            + "\nimport random  # injected regression\n",
            encoding="utf-8",
        )
        code = reprolint_main(["--config", str(PYPROJECT), str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RNG001" in out and "packet.py" in out

    def test_rule_pack_fixtures_fail_via_cli(self, tmp_path, capsys):
        for rule_id, (path, bad, _) in sorted(RULE_FIXTURES.items()):
            # Unique basename per rule: several fixtures share a directory.
            target = tmp_path / Path(path).parent / f"fixture_{rule_id.lower()}.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(bad, encoding="utf-8")
        # --strict so the SUP001 fixture reports; --no-cache keeps the
        # throwaway fixture tree out of the repo's incremental cache.
        code = reprolint_main(
            ["--config", str(PYPROJECT), "--strict", "--no-cache", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        for rule_id in RULE_FIXTURES:
            assert rule_id in out, f"{rule_id} fixture missing from CLI output"


def write_tree(root: Path, files: dict) -> None:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


# A mini-package whose driver hands a worker from another module to a
# spawn pool — safe as written; UNSAFE_UTIL makes the worker read a
# mutated-after-import module global.
SPAWN_PKG = {
    "pkg/__init__.py": "",
    "pkg/util.py": "def work(item):\n    return item + 1\n",
    "pkg/driver.py": (
        "from repro.harness import WorkerSupervisor\n\n"
        "from pkg.util import work\n\n\n"
        "def launch(items):\n"
        "    supervisor = WorkerSupervisor(2)\n"
        "    return supervisor.run(work, items)\n"
    ),
}

UNSAFE_UTIL = (
    "STATE = 0\n\n\n"
    "def bump():\n"
    "    global STATE\n"
    "    STATE = STATE + 1\n\n\n"
    "def work(item):\n"
    "    return STATE + item\n"
)


class TestProjectTier:
    """Cross-file rules over mini-packages (resolution through imports)."""

    def test_rng010_cross_module_collision(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def f(streams):\n    return streams.stream('shared')\n",
                "pkg/b.py": "def g(streams):\n    return streams.stream('shared')\n",
            },
        )
        report = lint_paths([Path("pkg")], LintConfig(select=["RNG010"]))
        assert rule_ids(report.diagnostics) == {"RNG010"}
        assert len(report.diagnostics) == 1, "one diagnostic per colliding name"
        message = report.diagnostics[0].message
        assert "pkg.a:f" in message and "pkg.b:g" in message

    def test_rng010_related_call_paths_do_not_collide(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": (
                    "from pkg.b import g\n\n\n"
                    "def f(streams):\n"
                    "    g(streams)\n"
                    "    return streams.stream('shared')\n"
                ),
                "pkg/b.py": "def g(streams):\n    return streams.stream('shared')\n",
            },
        )
        report = lint_paths([Path("pkg")], LintConfig(select=["RNG010"]))
        assert report.diagnostics == [], (
            "f reaches g through the call graph; the mirrored name is one lineage"
        )

    def test_rng011_constant_import_is_auditable(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/names.py": "NOISE_STREAM = 'noise'\n",
                "pkg/use.py": (
                    "from pkg.names import NOISE_STREAM\n\n\n"
                    "def f(streams):\n"
                    "    return streams.stream(NOISE_STREAM)\n"
                ),
            },
        )
        report = lint_paths([Path("pkg")], LintConfig(select=["RNG011"]))
        assert report.diagnostics == []

    def test_rng011_call_result_is_dynamic(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/names.py": "def pick_name():\n    return 'noise'\n",
                "pkg/use.py": (
                    "from pkg.names import pick_name\n\n\n"
                    "def f(streams):\n"
                    "    return streams.stream(pick_name())\n"
                ),
            },
        )
        report = lint_paths([Path("pkg")], LintConfig(select=["RNG011"]))
        assert rule_ids(report.diagnostics) == {"RNG011"}
        assert report.diagnostics[0].path == "pkg/use.py"

    def test_rng012_loop_fresh_receiver_is_exempt(self):
        source = (
            "def run(root, reps):\n"
            "    out = []\n"
            "    for rep in range(reps):\n"
            "        factory = root.spawn(f'rep-{rep}')\n"
            "        out.append(factory.stream('addc'))\n"
            "    return out\n\n\n"
            "__all__ = ['run']\n"
        )
        assert "RNG012" not in rule_ids(lint_source(source, "repro/sim/x.py"))

    def test_perf002_cross_module_worker(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = LintConfig(select=["PERF002"])
        write_tree(tmp_path, SPAWN_PKG)
        assert lint_paths([Path("pkg")], config).diagnostics == []
        (tmp_path / "pkg" / "util.py").write_text(UNSAFE_UTIL, encoding="utf-8")
        report = lint_paths([Path("pkg")], config)
        assert rule_ids(report.diagnostics) == {"PERF002"}
        finding = report.diagnostics[0]
        assert finding.path == "pkg/driver.py", "anchored at the handoff site"
        assert "STATE" in finding.message and "pkg.util" in finding.message

    def test_perf002_allowed_globals_escape_hatch(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, SPAWN_PKG)
        (tmp_path / "pkg" / "util.py").write_text(UNSAFE_UTIL, encoding="utf-8")
        config = LintConfig(
            select=["PERF002"],
            rule_options={"PERF002": {"allowed_globals": ["pkg.util:STATE"]}},
        )
        assert lint_paths([Path("pkg")], config).diagnostics == []

    def test_det003_cross_module_merge_feed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = LintConfig(select=["DET003"])
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/produce.py": (
                    "def collect(metrics):\n"
                    "    payload = {}\n"
                    "    for name in metrics.keys():\n"
                    "        payload[name] = metrics[name]\n"
                    "    return payload\n"
                ),
                "pkg/publish.py": (
                    "from pkg.produce import collect\n\n\n"
                    "def publish(metrics, recorder):\n"
                    "    return recorder.merge_snapshot(collect(metrics))\n"
                ),
            },
        )
        report = lint_paths([Path("pkg")], config)
        assert rule_ids(report.diagnostics) == {"DET003"}
        finding = report.diagnostics[0]
        assert finding.path == "pkg/produce.py", "anchored at the unordered iteration"
        assert "sorted(" in finding.message
        fixed = (
            "def collect(metrics):\n"
            "    payload = {}\n"
            "    for name in sorted(metrics):\n"
            "        payload[name] = metrics[name]\n"
            "    return payload\n"
        )
        (tmp_path / "pkg" / "produce.py").write_text(fixed, encoding="utf-8")
        assert lint_paths([Path("pkg")], config).diagnostics == []


class TestIncrementalCache:
    def test_warm_run_analyzes_zero_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, SPAWN_PKG)
        config = LintConfig(select=["PERF002", "RNG001"])
        cache = tmp_path / "cache.json"
        cold = lint_paths([Path("pkg")], config, cache_path=cache)
        assert cold.files_analyzed == 3 and cold.cache_hits == 0
        warm = lint_paths([Path("pkg")], config, cache_path=cache)
        assert warm.files_analyzed == 0 and warm.cache_hits == 3
        assert [d.as_dict() for d in warm.diagnostics] == [
            d.as_dict() for d in cold.diagnostics
        ]
        assert warm.suppressed == cold.suppressed

    def test_dependent_reanalyzed_on_change(self, tmp_path, monkeypatch):
        """Editing only util.py must surface the new cross-file finding
        anchored in the *unchanged* driver.py."""
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, SPAWN_PKG)
        config = LintConfig(select=["PERF002"])
        cache = tmp_path / "cache.json"
        assert lint_paths([Path("pkg")], config, cache_path=cache).diagnostics == []
        (tmp_path / "pkg" / "util.py").write_text(UNSAFE_UTIL, encoding="utf-8")
        warm = lint_paths([Path("pkg")], config, cache_path=cache)
        assert warm.files_analyzed == 2, "util.py plus its dependent driver.py"
        assert warm.cache_hits == 1, "__init__.py untouched"
        assert rule_ids(warm.diagnostics) == {"PERF002"}
        assert warm.diagnostics[0].path == "pkg/driver.py"

    def test_config_change_invalidates_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, SPAWN_PKG)
        cache = tmp_path / "cache.json"
        lint_paths([Path("pkg")], LintConfig(select=["PERF002"]), cache_path=cache)
        rerun = lint_paths(
            [Path("pkg")], LintConfig(select=["RNG001"]), cache_path=cache
        )
        assert rerun.files_analyzed == 3 and rerun.cache_hits == 0

    def test_corrupt_cache_is_a_cold_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, SPAWN_PKG)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        report = lint_paths([Path("pkg")], LintConfig(), cache_path=cache)
        assert report.files_analyzed == 3

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, SPAWN_PKG)
        (tmp_path / "pkg" / "util.py").write_text(UNSAFE_UTIL, encoding="utf-8")
        config = LintConfig(select=["PERF002", "API003"])
        serial = lint_paths([Path("pkg")], config, jobs=1)
        parallel = lint_paths([Path("pkg")], config, jobs=2)
        assert [d.as_dict() for d in serial.diagnostics] == [
            d.as_dict() for d in parallel.diagnostics
        ]


# Condensed structural subset of the official SARIF 2.1.0 schema
# (sarif-schema-2.1.0.json): the required top-level shape, tool.driver,
# and the result/location shape GitHub code scanning relies on.
SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarifOutput:
    def _sarif_for(self, tmp_path, capsys, source: str) -> dict:
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(source, encoding="utf-8")
        reprolint_main(["--format", "sarif", "--no-cache", str(tmp_path)])
        return json.loads(capsys.readouterr().out)

    def test_sarif_validates_against_2_1_0_schema(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        log = self._sarif_for(tmp_path, capsys, "import random\n")
        jsonschema.validate(log, SARIF_SCHEMA)
        assert log["runs"][0]["results"], "findings must appear as results"

    def test_sarif_result_shape(self, tmp_path, capsys):
        log = self._sarif_for(tmp_path, capsys, "import random\n")
        run = log["runs"][0]
        result = next(
            r for r in run["results"] if r["ruleId"] == "RNG001"
        )
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 1
        assert location["region"]["startColumn"] >= 1
        rules = run["tool"]["driver"]["rules"]
        assert result["ruleIndex"] == [r["id"] for r in rules].index("RNG001")

    def test_sarif_rules_cover_the_pack(self, tmp_path, capsys):
        log = self._sarif_for(tmp_path, capsys, "x = 1\n")
        listed = {rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]}
        assert listed >= {rule_class.id for rule_class in all_rules()}


class TestBaselineRatchet:
    def test_baseline_filters_known_reports_new_and_stale(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {"pkg/a.py": "import random\n", "pkg/b.py": "x = 1\n"},
        )
        config = LintConfig(select=["RNG001"])
        baseline = tmp_path / "baseline.json"
        first = lint_paths(
            [Path("pkg")], config, baseline_path=baseline, update_baseline=True
        )
        assert first.diagnostics == [] and first.baselined == 1
        assert baseline.is_file()

        # A new finding is NOT covered; the baselined one stays filtered.
        (tmp_path / "pkg" / "b.py").write_text("import random\n", encoding="utf-8")
        second = lint_paths([Path("pkg")], config, baseline_path=baseline)
        assert [d.path for d in second.diagnostics] == ["pkg/b.py"]
        assert second.baselined == 1 and second.stale_baseline == []

        # Fixing the baselined finding leaves a stale entry (ratchet cue).
        (tmp_path / "pkg" / "a.py").write_text("x = 2\n", encoding="utf-8")
        (tmp_path / "pkg" / "b.py").write_text("y = 3\n", encoding="utf-8")
        third = lint_paths([Path("pkg")], config, baseline_path=baseline)
        assert third.diagnostics == [] and third.baselined == 0
        assert len(third.stale_baseline) == 1
        assert third.stale_baseline[0].rule == "RNG001"

    def test_update_preserves_justifications(self, tmp_path, monkeypatch):
        from repro.lint import Baseline

        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path, {"pkg/a.py": "import random\n"})
        config = LintConfig(select=["RNG001"])
        baseline_path = tmp_path / "baseline.json"
        lint_paths(
            [Path("pkg")], config, baseline_path=baseline_path, update_baseline=True
        )
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        payload["entries"][0]["justification"] = "known quirk"
        baseline_path.write_text(json.dumps(payload), encoding="utf-8")
        lint_paths(
            [Path("pkg")], config, baseline_path=baseline_path, update_baseline=True
        )
        kept = Baseline.load(baseline_path)
        assert kept.entries[0].justification == "known quirk"

    def test_repo_baseline_matches_current_findings(self):
        """The committed baseline has no stale entries (ratchet invariant)."""
        from repro.lint import Baseline

        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.entries, "repo baseline exists and is non-empty"
        config = LintConfig.from_pyproject(PYPROJECT)
        report = lint_paths([SRC_DIR], config)
        new, matched, stale = baseline.split(report.diagnostics)
        assert stale == [], "baseline entries must match live findings"
        assert matched == len(baseline.entries)


class TestChangedMode:
    def _git(self, *argv, cwd):
        import subprocess

        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t"] + list(argv),
            cwd=str(cwd),
            check=True,
            capture_output=True,
        )

    def _repo_with_history(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/util.py": "def work(item):\n    return item\n",
                "pkg/driver.py": (
                    "from pkg.util import work\n\n\n"
                    "def launch(items):\n"
                    "    return [work(i) for i in items]\n"
                ),
                "pkg/other.py": "import random\n",
            },
        )
        self._git("init", "-q", cwd=tmp_path)
        self._git("add", ".", cwd=tmp_path)
        self._git("commit", "-q", "-m", "seed", cwd=tmp_path)

    def test_git_changed_files(self, tmp_path):
        from repro.lint.runner import git_changed_files

        self._repo_with_history(tmp_path)
        (tmp_path / "pkg" / "util.py").write_text(
            "import random\n\n\ndef work(item):\n    return item\n",
            encoding="utf-8",
        )
        (tmp_path / "pkg" / "fresh.py").write_text("x = 1\n", encoding="utf-8")
        changed = git_changed_files("HEAD", root=tmp_path)
        assert changed == ["pkg/fresh.py", "pkg/util.py"]

    def test_changed_restricts_to_changed_plus_dependents(
        self, tmp_path, monkeypatch, capsys
    ):
        self._repo_with_history(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pkg" / "util.py").write_text(
            "import random\n\n\ndef work(item):\n    return item\n",
            encoding="utf-8",
        )
        code = reprolint_main(
            [
                "--changed=HEAD",
                "--select",
                "RNG001",
                "--no-cache",
                "--format",
                "json",
                "pkg",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        # util.py changed; driver.py imports it; other.py's finding is
        # out of focus even though the file still has `import random`.
        assert [d["path"] for d in payload["diagnostics"]] == ["pkg/util.py"]
        assert payload["files_checked"] == 2

    def test_bad_ref_is_usage_error(self, tmp_path, monkeypatch, capsys):
        self._repo_with_history(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = reprolint_main(["--changed=nonexistent-ref", "--no-cache", "pkg"])
        assert code == 2
        assert "--changed" in capsys.readouterr().err


class TestStrictSuppressions:
    def test_unused_suppressions_reported_only_in_strict(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/a.py": (
                    "# reprolint: disable-file=RNG001\n"
                    "x = 1  # reprolint: disable=DET002 -- stale\n"
                    "import random\n"
                ),
            },
        )
        config = LintConfig(select=["RNG001", "DET002", "SUP001"])
        relaxed = lint_paths([Path("pkg")], config)
        assert "SUP001" not in rule_ids(relaxed.diagnostics)
        strict = lint_paths([Path("pkg")], config, strict=True)
        findings = [d for d in strict.diagnostics if d.rule_id == "SUP001"]
        # The file-level RNG001 suppression is used (line 3); only the
        # DET002 line suppression is dead.
        assert [d.line for d in findings] == [2]

    def test_strict_config_key(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path, {"pkg/a.py": "x = 1  # reprolint: disable=DET002\n"}
        )
        config = LintConfig.from_table({"strict": True, "select": ["DET002", "SUP001"]})
        assert config.strict is True
        report = lint_paths([Path("pkg")], config)
        assert rule_ids(report.diagnostics) == {"SUP001"}

    def test_suppression_of_project_finding_counts_as_used(self):
        bad, path = RULE_FIXTURES["RNG012"][1], RULE_FIXTURES["RNG012"][0]
        suppressed = bad.replace(
            "draws.append(streams.stream('noise'))",
            "draws.append(streams.stream('noise'))  # reprolint: disable=RNG012 -- fixture",
        )
        config = LintConfig(strict=True)
        diagnostics = lint_source(suppressed, path=path, config=config)
        assert "RNG012" not in rule_ids(diagnostics)
        assert "SUP001" not in rule_ids(diagnostics), (
            "a suppression consumed by a project-tier finding is not unused"
        )
