"""Every name a fleetsim module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import fleetsim


def test_every_all_entry_resolves():
    names = ["fleetsim"] + [m.name for m in pkgutil.walk_packages(fleetsim.__path__, "fleetsim.")]
    assert "fleetsim.simrunner.trace" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += ["%s.%s" % (name, entry) for entry in getattr(module, "__all__", ())
                    if not hasattr(module, entry)]
    assert missing == []
