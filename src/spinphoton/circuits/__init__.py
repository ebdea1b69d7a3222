"""Bundled circuit files for the two reference setups."""

from importlib import resources

__all__ = ["load", "names"]


def names() -> tuple[str, ...]:
    """Bundled circuit names, without the ``.qc`` suffix."""
    files = resources.files(__name__)
    return tuple(
        sorted(p.name[:-3] for p in files.iterdir() if p.name.endswith(".qc"))
    )


def load(name: str) -> str:
    """Return the source text of a bundled circuit (e.g. ``"cnot"``)."""
    path = resources.files(__name__).joinpath(f"{name}.qc")
    try:
        return path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise KeyError(f"no bundled circuit {name!r}; have {', '.join(names())}") from None
