"""The benchmark tracer's patch points exist and are restored after a run.

``perfbench/tracer.py`` wraps named functions, methods and module globals
of ``multifuture`` from outside.  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1``; this test makes that a tier-1 failure.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCH_POINTS = 26


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_point_and_uninstall_restores_it():
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        replaced = [owner.__dict__[attr] is not original
                    for owner, attr, original in patches]
    finally:
        tracer.uninstall()
    assert len(patches) == PATCH_POINTS
    assert all(replaced)
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
    assert tracer._patches == []
