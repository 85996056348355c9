"""Small builders shared by the tests."""

from __future__ import annotations

from sessionvalue.corpus import (
    Catalog,
    ClickEvent,
    Dataset,
    EvalLog,
    EvalSession,
    Session,
    SECONDS_PER_DAY,
)


def mk_session(sid: str, products: list[str], day: int = 0, spacing: int = 10) -> Session:
    start = day * SECONDS_PER_DAY
    clicks = tuple(
        ClickEvent(t=start + i * spacing, product=p) for i, p in enumerate(products)
    )
    return Session(session_id=sid, clicks=clicks)


def mk_catalog(products, paths: dict[str, tuple[str, ...]] | None = None) -> Catalog:
    """Default: every product in one shared top category, own fine category."""
    mapping = {p: ("top", f"fine-{p}") for p in products}
    if paths:
        mapping.update(paths)
    return Catalog(paths=mapping)


def mk_dataset(specs: list[tuple[str, int, list[str]]], catalog: Catalog | None = None) -> Dataset:
    """specs: (session_id, day, [clicked products in order])."""
    sessions = tuple(mk_session(sid, products, day=day) for sid, day, products in specs)
    if catalog is None:
        seen: set[str] = set()
        for _, _, products in specs:
            seen.update(products)
        catalog = mk_catalog(sorted(seen))
    return Dataset(sessions=sessions, catalog=catalog)


def mk_eval(specs: list[tuple[str, list[str], list[str]]]) -> EvalLog:
    """specs: (session_id, viewed, ordered)."""
    return EvalLog(
        sessions=tuple(
            EvalSession(session_id=sid, viewed=frozenset(viewed), ordered=frozenset(ordered))
            for sid, viewed, ordered in specs
        )
    )

