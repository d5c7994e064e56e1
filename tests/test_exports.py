import importlib
import pkgutil

import splitdecode


def test_every_exported_name_resolves():
    names = ["splitdecode"] + [
        f"splitdecode.{info.name}" for info in pkgutil.iter_modules(splitdecode.__path__)
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        unresolved = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        if unresolved:
            missing[name] = unresolved
    assert len(names) > 10
    assert missing == {}
