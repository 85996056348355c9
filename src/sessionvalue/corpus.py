"""Clickstream data model: sessions, catalogs, datasets and day slicing.

The on-disk interchange formats are UTF-8 JSON Lines:

* sessions:  ``{"session_id": "...", "clicks": [{"t": <int>, "p": "<product>"}, ...]}``
* catalog:   ``{"p": "<product>", "cat": ["level0", "level1", ...]}``
* eval log:  ``{"session_id": "...", "viewed": [...], "ordered": [...]}``

Writers emit canonical bytes (fixed key order, compact separators, sorted
member lists) so that load/save round trips are byte-exact.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .atomic import atomic_open
from .errors import (
    DatasetFormatError,
    DuplicateSessionIdError,
    MissingCatalogEntryError,
    MissingCategoryLevelError,
    UnknownSessionError,
    UnsortedEventsError,
)

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86_400
# 30 minutes: the conventional web-analytics inactivity cut.
DEFAULT_SESSION_GAP = 1_800
MAX_PRODUCT_ID_LEN = 64
MAX_CATEGORY_DEPTH = 6


def validate_product_id(product: str) -> str:
    if not isinstance(product, str) or not product:
        raise ValueError("product id must be a non-empty string")
    if len(product) > MAX_PRODUCT_ID_LEN:
        raise ValueError(f"product id longer than {MAX_PRODUCT_ID_LEN} chars: {product[:80]!r}")
    if not product.isprintable():
        raise ValueError(f"product id contains non-printable characters: {product!r}")
    return product


@dataclass(frozen=True)
class ClickEvent:
    """A single product-page click."""

    t: int
    product: str

    def __post_init__(self) -> None:
        if type(self.t) is not int:  # exact: a bool, float or string time is refused
            raise TypeError(f"click timestamp must be an integer, got {self.t!r}")
        if self.t < 0:
            raise ValueError(f"click timestamp must be >= 0, got {self.t}")
        validate_product_id(self.product)


@dataclass(frozen=True)
class Session:
    """Chronologically ordered product-page clicks of one user visit."""

    session_id: str
    clicks: tuple[ClickEvent, ...]

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ValueError("session_id must be non-empty")
        if not self.clicks:
            raise ValueError(f"session {self.session_id!r} has no clicks")
        for i in range(1, len(self.clicks)):
            if self.clicks[i].t < self.clicks[i - 1].t:
                raise UnsortedEventsError(i)

    @property
    def day(self) -> int:
        """Day bucket of the first click; a session never straddles buckets."""
        return self.clicks[0].t // SECONDS_PER_DAY

    @property
    def length(self) -> int:
        return len(self.clicks)

    @cached_property
    def unique_products(self) -> frozenset[str]:
        return frozenset(c.product for c in self.clicks)


@dataclass(frozen=True)
class Catalog:
    """Maps every product to its category path (top level first)."""

    paths: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        for product, path in self.paths.items():
            validate_product_id(product)
            if not 1 <= len(path) <= MAX_CATEGORY_DEPTH:
                raise ValueError(
                    f"category path for {product!r} must have 1..{MAX_CATEGORY_DEPTH} levels"
                )
            if any(not token for token in path):
                raise ValueError(f"category path for {product!r} contains empty tokens")

    def __contains__(self, product: str) -> bool:
        return product in self.paths

    def path(self, product: str) -> tuple[str, ...]:
        try:
            return self.paths[product]
        except KeyError:
            raise MissingCatalogEntryError(product) from None

    def token_at(self, product: str, level: int) -> str:
        path = self.path(product)
        if not 0 <= level < len(path):
            raise MissingCategoryLevelError(product, level)
        return path[level]

    @property
    def products(self) -> frozenset[str]:
        return frozenset(self.paths)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of sessions plus the catalog covering them."""

    sessions: tuple[Session, ...]
    catalog: Catalog

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for s in self.sessions:
            if s.session_id in seen:
                raise DuplicateSessionIdError(s.session_id)
            seen.add(s.session_id)
            for p in s.unique_products:
                if p not in self.catalog:
                    raise MissingCatalogEntryError(p)

    def __len__(self) -> int:
        return len(self.sessions)

    @cached_property
    def by_id(self) -> dict[str, Session]:
        return {s.session_id: s for s in self.sessions}

    @cached_property
    def products(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.sessions:
            out |= s.unique_products
        return frozenset(out)

    @property
    def min_day(self) -> int:
        return min(s.day for s in self.sessions)

    @property
    def max_day(self) -> int:
        return max(s.day for s in self.sessions)


@dataclass(frozen=True)
class DeltaDataset:
    """The base dataset with exactly one session omitted."""

    base: Dataset
    omitted: str

    def __post_init__(self) -> None:
        if self.omitted not in self.base.by_id:
            raise UnknownSessionError(self.omitted)

    @cached_property
    def materialized(self) -> Dataset:
        kept = tuple(s for s in self.base.sessions if s.session_id != self.omitted)
        return Dataset(sessions=kept, catalog=self.base.catalog)


@dataclass(frozen=True)
class EvalSession:
    """Held-out session: which seed pages were viewed, which products ordered."""

    session_id: str
    viewed: frozenset[str]
    ordered: frozenset[str]

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ValueError("eval session_id must be non-empty")
        if not self.viewed:
            raise ValueError(f"eval session {self.session_id!r} has an empty viewed set")


@dataclass(frozen=True)
class EvalLog:
    sessions: tuple[EvalSession, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for s in self.sessions:
            if s.session_id in seen:
                raise DuplicateSessionIdError(s.session_id)
            seen.add(s.session_id)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def sessionize(
    events: Sequence[ClickEvent],
    gap: int = DEFAULT_SESSION_GAP,
    id_prefix: str = "s",
) -> list[Session]:
    """Split one user's ordered click stream at inactivity gaps of >= ``gap`` seconds.

    Consecutive events closer than ``gap`` share a session. Raises
    UnsortedEventsError naming the first offending index on unsorted input.
    """
    if gap <= 0:
        raise ValueError(f"gap must be > 0, got {gap}")
    for i in range(1, len(events)):
        if events[i].t < events[i - 1].t:
            raise UnsortedEventsError(i)
    sessions: list[Session] = []
    start = 0
    for i in range(1, len(events) + 1):
        if i == len(events) or events[i].t - events[i - 1].t >= gap:
            sid = f"{id_prefix}-{len(sessions):06d}"
            sessions.append(Session(session_id=sid, clicks=tuple(events[start:i])))
            start = i
    return sessions


def leave_one_out(dataset: Dataset, session_id: str) -> DeltaDataset:
    """Derive the dataset with ``session_id`` omitted; the base is untouched."""
    return DeltaDataset(base=dataset, omitted=session_id)


def slice_days(dataset: Dataset, end_day: int, n_days: int) -> Dataset:
    """Retain sessions with day in [end_day - n_days + 1, end_day]."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    first = end_day - n_days + 1
    kept = tuple(s for s in dataset.sessions if first <= s.day <= end_day)
    return Dataset(sessions=kept, catalog=dataset.catalog)


def heterogeneity_ratio(session: Session, catalog: Catalog, level: int | None = None) -> float:
    """Unique category tokens at ``level`` divided by unique products.

    Repeated clicks collapse: both numerator and denominator range over the
    session's unique product set. ``level=None`` uses the deepest level shared
    by every clicked product (fine-grained).
    """
    products = sorted(session.unique_products)
    if level is None:
        level = min(len(catalog.path(p)) for p in products) - 1
    categories = {catalog.token_at(p, level) for p in products}
    return len(categories) / len(products)


# ---------------------------------------------------------------------------
# Interchange format IO
# ---------------------------------------------------------------------------


def _session_line(session: Session) -> str:
    doc = {
        "session_id": session.session_id,
        "clicks": [{"t": c.t, "p": c.product} for c in session.clicks],
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)


def write_sessions(sessions: Iterable[Session], path: str | Path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sessions:
            fh.write(_session_line(s) + "\n")


def read_sessions(path: str | Path) -> list[Session]:
    sessions: list[Session] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                sid = doc["session_id"]
                clicks = tuple(ClickEvent(t=c["t"], product=c["p"]) for c in doc["clicks"])
                session = Session(session_id=sid, clicks=clicks)
            except (KeyError, TypeError, ValueError, UnsortedEventsError) as exc:
                raise DatasetFormatError(str(path), line_no, f"malformed session line ({exc})")
            if session.session_id in seen:
                raise DuplicateSessionIdError(session.session_id)
            seen.add(session.session_id)
            sessions.append(session)
    return sessions


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for product in sorted(catalog.paths):
            doc = {"p": product, "cat": list(catalog.paths[product])}
            fh.write(json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n")


def read_catalog(path: str | Path) -> Catalog:
    paths: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                product = doc["p"]
                cat = tuple(str(tok) for tok in doc["cat"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetFormatError(str(path), line_no, f"malformed catalog line ({exc})")
            paths[product] = cat
    return Catalog(paths=paths)


def load_dataset(sessions_path: str | Path, catalog_path: str | Path) -> Dataset:
    """Parse the interchange files into a validated Dataset, order-preserving."""
    catalog = read_catalog(catalog_path)
    sessions = read_sessions(sessions_path)
    return Dataset(sessions=tuple(sessions), catalog=catalog)


def write_dataset(dataset: Dataset, sessions_path: str | Path, catalog_path: str | Path) -> None:
    write_sessions(dataset.sessions, sessions_path)
    write_catalog(dataset.catalog, catalog_path)


def write_eval_log(eval_log: EvalLog, path: str | Path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in eval_log.sessions:
            doc = {
                "session_id": s.session_id,
                "viewed": sorted(s.viewed),
                "ordered": sorted(s.ordered),
            }
            fh.write(json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n")


def read_eval_log(path: str | Path) -> EvalLog:
    sessions: list[EvalSession] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                viewed, ordered = doc["viewed"], doc.get("ordered", [])
                if type(viewed) is not list or type(ordered) is not list:
                    raise TypeError("viewed and ordered must be lists of product ids")
                sessions.append(
                    EvalSession(
                        session_id=doc["session_id"],
                        viewed=frozenset(viewed),
                        ordered=frozenset(ordered),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetFormatError(str(path), line_no, f"malformed eval line ({exc})")
    return EvalLog(sessions=tuple(sessions))
