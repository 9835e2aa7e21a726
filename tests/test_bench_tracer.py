"""The benchmark's traced run wraps public names of the program by name.

`bench/tracer.py` resolves every `TARGETS` entry with `getattr`, so a public
name removed or renamed in `biorder` breaks the traced run.  The tracer's
source is read and executed here (it imports only the standard library); the
file itself is neither imported as a module nor changed.
"""

import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for qualified in targets:
        module_name, _, attr = qualified.partition(".")
        owner = importlib.import_module(f"biorder.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), qualified
