"""Clickstream data model: sessions, catalogs, datasets and day slicing.

The on-disk interchange formats are UTF-8 JSON Lines:

* sessions:  ``{"session_id": "...", "clicks": [{"t": <int>, "p": "<product>"}, ...]}``
* catalog:   ``{"p": "<product>", "cat": ["level0", "level1", ...]}``
* eval log:  ``{"session_id": "...", "viewed": [...], "ordered": [...]}``

Writers emit canonical bytes (fixed key order, compact separators, sorted
member lists) so that load/save round trips are byte-exact. Every reader is one
call to ``read_jsonl`` with a per-line parser; the constructors validate the
values, the parsers refuse a repeated session id or product (one set of seen
ids per file), and any malformed line, a line nested too deep to decode
included, raises DatasetFormatError naming its file and line. ``read_jsonl``
decodes each line to what ``json.loads`` gives, with the same error message,
but by one ``raw_decode`` call where it can.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterable

from .atomic import write_jsonl
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


def validate_category_path(product: str, path: tuple[str, ...]) -> None:
    """The rule every catalog entry obeys: a valid product, 1..6 non-empty string tokens."""
    validate_product_id(product)
    if not 1 <= len(path) <= MAX_CATEGORY_DEPTH:
        raise ValueError(f"category path for {product!r} must have 1..{MAX_CATEGORY_DEPTH} levels")
    if not all(isinstance(token, str) and token for token in path):
        raise ValueError(f"category path for {product!r} must hold non-empty strings")


def validate_unique_ids(sessions: Iterable[Session | EvalSession]) -> None:
    seen: set[str] = set()
    for s in sessions:
        if s.session_id in seen:
            raise DuplicateSessionIdError(s.session_id)
        seen.add(s.session_id)


def require_in_catalog(products: Iterable[str], catalog: Catalog) -> None:
    """Every product an input references, training or eval, must be in the catalog."""
    missing = [p for p in products if p not in catalog.paths]
    if missing:
        raise MissingCatalogEntryError(min(missing))


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


def _refuse_times(times: tuple[int, ...]) -> None:
    """Raise the error for the first click time that is not an int, is
    negative or comes before the one ahead of it."""
    previous = 0
    for i, t in enumerate(times):
        if type(t) is not int:  # exact: a bool, float or string time is refused
            raise TypeError(f"click timestamp must be an integer, got {t!r}")
        if t < previous:
            if t < 0:
                raise ValueError(f"click timestamp must be >= 0, got {t}")
            raise UnsortedEventsError(i)
        previous = t


@dataclass(frozen=True, init=False)
class Session:
    """Chronologically ordered product-page clicks of one user visit.

    The clicks are held as two parallel columns, ``times`` and ``products``;
    ``clicks`` derives the ``ClickEvent`` view from them. Both constructors,
    ``Session(session_id, clicks)`` and ``Session.from_columns``, run the
    same checks with the same messages as ``ClickEvent``'s.
    """

    session_id: str
    times: tuple[int, ...]
    products: tuple[str, ...]

    def __init__(self, session_id: str, clicks: Iterable[ClickEvent]) -> None:
        clicks = tuple(clicks)
        self._fill(session_id, tuple(c.t for c in clicks), tuple(c.product for c in clicks), set())

    @classmethod
    def from_columns(cls, session_id: str, times: Iterable[int], products: Iterable[str]) -> Session:
        session = cls.__new__(cls)
        session._fill(session_id, tuple(times), tuple(products), set())
        return session

    def _fill(
        self, session_id: str, times: tuple[int, ...], products: tuple[str, ...], checked: set[str]
    ) -> None:
        """Validate and set the fields. ``checked`` holds product ids already
        validated, and gains this session's; a reader passes one set per file,
        so that each distinct id is validated once."""
        if not isinstance(session_id, str) or not session_id:
            raise ValueError(f"session_id must be a non-empty string, got {session_id!r}")
        if not times:
            raise ValueError(f"session {session_id!r} has no clicks")
        if len(products) != len(times):
            raise ValueError(f"session {session_id!r} has {len(times)} times but {len(products)} products")
        previous = 0
        for t in times:
            if type(t) is not int or t < previous:
                _refuse_times(times)
            previous = t
        try:
            first_seen = dict.fromkeys(products)
        except TypeError:  # an unhashable product: refuse the first invalid one as ClickEvent would
            first_seen = dict.fromkeys(map(validate_product_id, products))
        if not checked.issuperset(first_seen):
            for product in first_seen:
                if product not in checked:
                    validate_product_id(product)
            checked.update(first_seen)
        setattr_ = object.__setattr__
        setattr_(self, "session_id", session_id)
        setattr_(self, "times", times)
        setattr_(self, "products", products)
        setattr_(self, "day", times[0] // SECONDS_PER_DAY)  # a session never straddles day buckets
        setattr_(self, "unique_products", frozenset(first_seen))

    @property
    def clicks(self) -> tuple[ClickEvent, ...]:
        return tuple(ClickEvent(t=t, product=p) for t, p in zip(self.times, self.products))

    @property
    def length(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Catalog:
    """Maps every product to its category path (top level first)."""

    paths: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        for product, path in self.paths.items():
            validate_category_path(product, path)

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
        validate_unique_ids(self.sessions)
        require_in_catalog(frozenset().union(*(s.unique_products for s in self.sessions)), self.catalog)

    def __len__(self) -> int:
        return len(self.sessions)

    @cached_property
    def by_id(self) -> dict[str, Session]:
        return {s.session_id: s for s in self.sessions}

    @cached_property
    def min_day(self) -> int:
        return min(s.day for s in self.sessions)

    @cached_property
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
        if not isinstance(self.session_id, str) or not self.session_id:
            raise ValueError(f"eval session_id must be a non-empty string, got {self.session_id!r}")
        if not self.viewed:
            raise ValueError(f"eval session {self.session_id!r} has an empty viewed set")
        if not (all(map(isinstance, self.viewed, repeat(str)))
                and all(map(isinstance, self.ordered, repeat(str)))):
            raise ValueError(f"eval session {self.session_id!r} has a product id that is not a string")


@dataclass(frozen=True)
class EvalLog:
    sessions: tuple[EvalSession, ...]

    def __post_init__(self) -> None:
        validate_unique_ids(self.sessions)

    @property
    def products(self) -> frozenset[str]:
        return frozenset().union(*(e.viewed for e in self.sessions), *(e.ordered for e in self.sessions))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


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


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\r\n"


def read_jsonl(path: str | Path, what: str, parse: Callable[[Any], Any]) -> list:
    """``parse`` each non-blank line's JSON value; a line it refuses is a DatasetFormatError.

    A line is decoded as ``json.loads(line.decode("utf-8"))`` would decode it.
    The fast path is one ``raw_decode`` of the text without its JSON
    whitespace, kept only when the value ends where that text ends; any other
    line goes through ``json.loads`` itself, so a refused line raises the same
    message, column included. Nesting too deep to decode is refused too.
    """
    out = []
    with open(path, "rb") as fh:  # decoded per line, so a non-UTF-8 line names its number
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                text = line.decode("utf-8")
                stripped = text.strip(_JSON_SPACE)
                try:
                    doc, end = _raw_decode(stripped)
                except ValueError:
                    end = -1
                if end != len(stripped):
                    doc = json.loads(text)
                out.append(parse(doc))
            except (
                KeyError, TypeError, ValueError, OverflowError, RecursionError, UnsortedEventsError
            ) as exc:
                raise DatasetFormatError(str(path), line_no, f"malformed {what} line ({exc})") from exc
    return out


def write_sessions(sessions: Iterable[Session], path: str | Path) -> None:
    write_jsonl(path, (
        {"session_id": s.session_id, "clicks": [{"t": t, "p": p} for t, p in zip(s.times, s.products)]}
        for s in sessions
    ))


def _refuse_repeat(session_id: str, seen: set[str]) -> None:
    """Refuse a session id that an earlier line of the file holds; remember it."""
    if session_id in seen:
        raise ValueError(f"duplicate session_id {session_id!r}")
    seen.add(session_id)


def read_sessions(path: str | Path) -> list[Session]:
    checked: set[str] = set()  # the product ids validated so far in this file
    seen: set[str] = set()  # the session ids read so far in this file

    def parse(doc: Any) -> Session:
        clicks = doc["clicks"]
        session = Session.__new__(Session)
        # tuple() of a list, not of a generator, which over-allocates and left
        # about 1 MB more peak memory on the vr-loo benchmark inputs.
        times, products = tuple([c["t"] for c in clicks]), tuple([c["p"] for c in clicks])
        session._fill(doc["session_id"], times, products, checked)
        _refuse_repeat(session.session_id, seen)
        return session

    return read_jsonl(path, "session", parse)


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    write_jsonl(path, ({"p": p, "cat": list(catalog.paths[p])} for p in sorted(catalog.paths)))


def read_catalog(path: str | Path) -> Catalog:
    paths: dict[str, tuple[str, ...]] = {}

    def parse(doc: Any) -> None:
        product, cat = doc["p"], doc["cat"]
        if type(cat) is not list:  # tuple() of a string would split it into characters
            raise TypeError(f"cat must be a list, got {cat!r}")
        validate_category_path(product, tuple(cat))
        if product in paths:
            raise ValueError(f"duplicate product {product!r}")
        paths[product] = tuple(cat)

    read_jsonl(path, "catalog", parse)
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
    write_jsonl(path, (
        {"session_id": s.session_id, "viewed": sorted(s.viewed), "ordered": sorted(s.ordered)}
        for s in eval_log.sessions
    ))


def read_eval_log(path: str | Path) -> EvalLog:
    seen: set[str] = set()  # the session ids read so far in this file

    def parse(doc: Any) -> EvalSession:
        viewed, ordered = doc["viewed"], doc.get("ordered", [])
        if type(viewed) is not list or type(ordered) is not list:  # frozenset() would split a string
            raise TypeError("viewed and ordered must be lists of product ids")
        session = EvalSession(doc["session_id"], frozenset(viewed), frozenset(ordered))
        _refuse_repeat(session.session_id, seen)
        return session

    return EvalLog(sessions=tuple(read_jsonl(path, "eval", parse)))
