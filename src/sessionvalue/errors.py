"""Exception types shared across the package."""

from __future__ import annotations


class SessionValueError(Exception):
    """Base class for all errors raised by this package."""


class UnsortedEventsError(SessionValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"click events not sorted by timestamp at index {index}")


class DatasetFormatError(SessionValueError):
    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


class DuplicateSessionIdError(SessionValueError):
    def __init__(self, session_id: str):
        self.session_id = session_id
        super().__init__(f"duplicate session_id {session_id!r}")


class MissingCatalogEntryError(SessionValueError):
    def __init__(self, product: str):
        self.product = product
        super().__init__(f"product {product!r} is not in the catalog")


class MissingCategoryLevelError(SessionValueError):
    def __init__(self, product: str, level: int):
        self.product = product
        self.level = level
        super().__init__(f"product {product!r} has no category at level {level}")


class UnknownSessionError(SessionValueError):
    def __init__(self, session_id: str):
        self.session_id = session_id
        super().__init__(f"unknown session_id {session_id!r}")


class EmptyVocabularyError(SessionValueError):
    def __init__(self, min_count: int):
        self.min_count = min_count
        super().__init__(f"no product reaches min_count={min_count}; vocabulary is empty")


class MatrixUnderflowError(SessionValueError):
    """A product of the session being left out is missing from the
    co-occurrence matrix: the session was not part of the matrix build."""


class PlantFailedError(SessionValueError):
    """No verifiable toxic plant was found within the retry budget."""


class UndefinedBaselineError(SessionValueError):
    def __init__(self) -> None:
        super().__init__("baseline conversion rate is zero; relative change undefined")


class EmptySliceError(SessionValueError):
    def __init__(self, n_days: int):
        self.n_days = n_days
        super().__init__(f"day slice of size {n_days} selects no sessions")


class ConfigError(SessionValueError):
    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(f"config key {key!r}: {reason}")


class KernelBuildError(SessionValueError):
    """The compiled training kernel could not be built, or its cache
    directory is not safe to load from."""


class WorkerDiedError(SessionValueError):
    def __init__(self, jobs: int):
        self.jobs = jobs
        super().__init__(
            f"a leave-one-out worker process (of --jobs {jobs}) died before it returned its "
            "records, for example killed for lack of memory; no records were written"
        )
