"""Public names of a package, resolved on first access (PEP 562).

A package ``__init__`` holds a docstring and one export table — public
name to defining submodule — and imports nothing: importing
``repro.core.stealval`` compiles ``stealval.py`` and what it imports, not
four queue classes and the fabric.  A name is looked up once; the result
is cached in the package namespace, so it *is* the object its defining
module holds and later accesses never come back here.

This module is what ``import repro`` costs, so it imports ``sys`` only.
"""

import sys

ModuleType = type(sys)


def _load(name: str) -> ModuleType:
    __import__(name)
    return sys.modules[name]


def exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``__init__``.

    ``table`` maps each public name to the submodule that defines it,
    relative to ``package`` (``"config"``, ``"core.config"``); write
    ``"bpc:PAPER_PARAMS"`` where the defining module knows the object
    under another name.  A submodule of the package resolves too, as it
    did when ``__init__`` imported every one of them.
    """
    namespace = vars(sys.modules[package])
    submodules = {target.partition(":")[0].partition(".")[0]
                  for target in table.values()}

    def __getattr__(name: str):
        target = table.get(name)
        if target is not None:
            module, _, attr = target.partition(":")
            value = getattr(_load(f"{package}.{module}"), attr or name)
        elif name in submodules:
            value = _load(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    shadowed = {name for name, target in table.items() if target == name}
    if shadowed:
        # The import system binds a loaded submodule on its package,
        # which would hide the export of the same name from then on; the
        # export wins, as it did when ``__init__`` imported it.
        class Package(ModuleType):
            def __setattr__(self, name, value):
                if name in shadowed and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package

    return __getattr__, __dir__, list(table)
