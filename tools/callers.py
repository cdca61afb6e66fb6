"""Who enters the named functions: a ``sys.setprofile`` call recorder.

    python tools/callers.py NAMES pytest [pytest arguments ...]
    python tools/callers.py NAMES script PATH [script arguments ...]

``NAMES`` is a comma-separated list of functions defined under ``src/``,
each a bare name (``decode_cell``, which also matches every method of
that name) or qualified by its class (``DiskStorage._store``).
Every entry into one of them, on any thread of this process, is
attributed twice:

* to what was running — under ``pytest`` the test's node id, under
  ``script`` the script's path;
* to its *origin*, the innermost frame outside ``src/``: the line that
  reached into the library (a test, an example, a benchmark — or a
  thread's entry point, when a handler thread runs the call).

At exit the recorder prints, per name, how often it was entered, the
test files or script it was entered under and the origins; a name
never entered says so. Child processes are not followed — the shard
processes of a cluster, an example a test runs in a subprocess — so
run the recorder on those directly.

Static search misses callers reached through ``getattr`` (RPC handlers
registered by name, the router's ``_call_*``). Run this before deleting
code a grep calls dead. It only prints; CI does not run it.
"""

from __future__ import annotations

import os
import runpy
import sys
import threading
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src") + os.sep


def _where(filename: str) -> str:
    path = Path(filename)
    try:
        return str(path.resolve().relative_to(_ROOT))
    except (ValueError, OSError):
        return path.name


class Recorder:
    """Counts entries into the named ``src/`` functions."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.context = "-"
        self.entries: dict[str, Counter] = {name: Counter() for name in names}
        self.origins: dict[str, Counter] = {name: Counter() for name in names}
        self._lock = threading.Lock()

    def _match(self, qualname: str) -> str | None:
        for name in self.names:
            if qualname == name or qualname.endswith("." + name):
                return name
        return None

    def profile(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(_SRC):
            return
        name = self._match(code.co_qualname)
        if name is None:
            return
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename.startswith(
            _SRC
        ):
            caller = caller.f_back
        origin = (
            "-" if caller is None
            else f"{_where(caller.f_code.co_filename)}:{caller.f_lineno}"
        )
        with self._lock:
            self.entries[name][self.context.split("::")[0]] += 1
            self.origins[name][origin] += 1

    def start(self) -> None:
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def report(self) -> str:
        lines = []
        for name in self.names:
            total = sum(self.entries[name].values())
            if not total:
                lines.append(f"{name}: never entered")
                continue
            lines.append(f"{name}: entered {total} times")
            for context, count in self.entries[name].most_common():
                lines.append(f"    under  {context}  ({count})")
            for origin, count in self.origins[name].most_common():
                lines.append(f"    from   {origin}  ({count})")
        return "\n".join(lines)


class _Labels:
    """pytest plugin: the running test is the recorder's context."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def pytest_runtest_logstart(self, nodeid, location) -> None:
        self.recorder.context = nodeid

    def pytest_runtest_logfinish(self, nodeid, location) -> None:
        self.recorder.context = "-"


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("pytest", "script") or (
        argv[1] == "script" and len(argv) < 3
    ):
        print(__doc__, file=sys.stderr)
        return 2
    names = [name for name in argv[0].split(",") if name]
    recorder = Recorder(names)
    sys.path.insert(0, str(_ROOT / "src"))
    status = 0
    recorder.start()
    try:
        if argv[1] == "pytest":
            import pytest

            sys.path.insert(0, os.getcwd())  # as ``python -m pytest`` does
            status = int(pytest.main(argv[2:], plugins=[_Labels(recorder)]))
        else:
            path = argv[2]
            recorder.context = _where(path)
            # as ``python PATH`` does
            sys.path.insert(0, os.path.dirname(os.path.abspath(path)))
            sys.argv = argv[2:]
            try:
                runpy.run_path(path, run_name="__main__")
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.stop()
    print(recorder.report())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
