"""Parsing, validation, and persistence of datasets, predictions, ledgers,
and reports.

Ground truth uses the COCO annotation format, predictions the COCO
detection-results format. Category ids are remapped to a dense 1..M index at
ingestion; files always carry the original (source) ids.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from boxaudit.errors import (
    AuditError,
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidInputError,
    InvalidScoreError,
    MissingFileError,
)
from boxaudit.geometry import DEGENERATE, NOT_FINITE, BBox

if TYPE_CHECKING:
    from boxaudit.confident_learning import VerdictTable
    from boxaudit.evaluation import RocCurve
    from boxaudit.noise_injection import NoiseLedger
    from boxaudit.pipeline import DetectionResult

__all__ = [
    "ImageInfo",
    "Category",
    "AnnotatedBox",
    "Dataset",
    "PredictionSet",
    "BoxColumns",
    "load_ground_truth",
    "load_predictions",
    "save_dataset",
    "save_ledger",
    "load_ledger",
    "save_report",
    "load_report",
    "save_roc",
]


@dataclass(frozen=True)
class ImageInfo:
    """An image: boxes on it are clamped to its width and height as floats,
    so a size past the float range is refused here."""

    id: int
    width: int
    height: int
    file_name: str

    def __post_init__(self):
        for name in ("width", "height"):
            try:
                float(getattr(self, name))
            except OverflowError:
                raise InvalidInputError(f"image {self.id}: {name} past the float range") from None


@dataclass(frozen=True)
class Category:
    """A class label: ``id`` is the dense internal index in 1..M,
    ``source_id`` the id used in files."""

    id: int
    name: str
    source_id: int


@dataclass(frozen=True)
class AnnotatedBox:
    """A labeled box: a model prediction when it has a ``score``, else a
    ground-truth annotation."""

    id: int
    image_id: int
    category_id: int
    bbox: BBox
    score: float | None = None

    def __post_init__(self):
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise InvalidScoreError(
                f"annotation {self.id}: score {self.score} outside [0, 1]"
            )


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an array of Python ints when some
    lie beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


_BBOX = attrgetter("bbox")
_XYWH = attrgetter("x", "y", "w", "h")
_COLUMN_NAMES = ("ids", "image_ids", "classes", "scores", "xywh")


@dataclass(frozen=True, eq=False)
class BoxColumns:
    """A list of boxes as columns: entry k of every array describes box k.
    Integer columns are int64, or Python ints past int64. ``items`` holds
    the boxes as :class:`AnnotatedBox` objects, built on first access."""

    ids: np.ndarray
    image_ids: np.ndarray
    classes: np.ndarray  # dense category ids
    scores: np.ndarray  # float64, NaN where a box has no score
    xywh: np.ndarray  # (n, 4) float64

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def predicted(self) -> np.ndarray:
        """Whether each box is a prediction: a box has a score iff it is."""
        return ~np.isnan(self.scores)

    @cached_property
    def items(self) -> list[AnnotatedBox]:
        return [
            AnnotatedBox(i, image_id, c, BBox(*xywh), score)
            for i, image_id, c, xywh, score in zip(
                self.ids.tolist(),
                self.image_ids.tolist(),
                self.classes.tolist(),
                self.xywh.tolist(),
                np.where(self.predicted, self.scores, None).tolist(),
            )
        ]

    @classmethod
    def of(cls, boxes: list[AnnotatedBox]) -> BoxColumns:
        """The columns of ``boxes``."""
        n = len(boxes)
        return cls(
            ids=int_array([b.id for b in boxes]),
            image_ids=int_array([b.image_id for b in boxes]),
            classes=int_array([b.category_id for b in boxes]),
            scores=np.array([b.score for b in boxes], dtype=np.float64),
            xywh=np.fromiter(
                chain.from_iterable(map(_XYWH, map(_BBOX, boxes))), np.float64, 4 * n
            ).reshape(n, 4),
        )

    @classmethod
    def join(cls, first: BoxColumns, second: BoxColumns) -> BoxColumns:
        """The boxes of ``first`` followed by those of ``second``."""
        return cls(*(
            np.concatenate((getattr(first, name), getattr(second, name)))
            for name in _COLUMN_NAMES
        ))

    def take(self, rows: np.ndarray) -> BoxColumns:
        """The boxes at ``rows`` (indices or a mask)."""
        return BoxColumns(*(getattr(self, name)[rows] for name in _COLUMN_NAMES))


class Dataset:
    """Images, categories and annotations. The annotations are held as
    ``columns``; ``annotations`` gives them as :class:`AnnotatedBox`
    objects."""

    def __init__(
        self, images: list[ImageInfo], categories: list[Category], annotations: BoxColumns
    ):
        self.images = images
        self.categories = categories
        self.columns = annotations

    @property
    def annotations(self) -> list[AnnotatedBox]:
        return self.columns.items

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.images, self.categories, self.annotations) == (
            other.images, other.categories, other.annotations
        )

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def image_map(self) -> dict[int, ImageInfo]:
        return {img.id: img for img in self.images}

    def dense_to_source(self) -> dict[int, int]:
        return {c.id: c.source_id for c in self.categories}

    def source_to_dense(self) -> dict[int, int]:
        return {c.source_id: c.id for c in self.categories}


class PredictionSet:
    """Out-of-sample model detections for a companion :class:`Dataset`,
    held as ``columns``; ``boxes`` gives them as :class:`AnnotatedBox`
    objects.

    Whether the predictions really are out-of-sample (the model never trained
    on the audited images) is the caller's responsibility; it cannot be
    checked from the files.
    """

    def __init__(self, boxes: BoxColumns):
        self.columns = boxes

    @property
    def boxes(self) -> list[AnnotatedBox]:
        return self.columns.items


# --- the rule table ------------------------------------------------------------
#
# Each kind of record is checked against one ordered table of rules. A rule
# names a check of :data:`_CHECKS` and the column it checks: the values
# under a key, the members of a box, or numbers an earlier check converted.
# A check returns the mask of the rows it refuses, with the error class and
# message template that word a refusal. When a rule refuses rows, every
# column is cut back to the rows before the first of them, so each later rule
# sees only rows that passed the earlier ones, and the last refusal is the
# list's first error: its lowest failing row, worded by the first rule that
# row fails. A list no rule refuses is built from the checked columns.
#
# Messages name the offending value, e.g. "detections[12].bbox". Type tests
# compare ``type(v)`` with int and float: json.load yields exactly those (and
# bool, which is rejected), never subclasses of them.

_INT = "an integer"
_NUMBER = "a number"
_STR = "a string"
_BOOL = "true or false"
_MISSING = object()  # the value under a key a record lacks
# the types of each kind; an absent flag is false, and ``_MISSING`` is the
# only value of type ``object``
_TYPES = {_INT: {int}, _NUMBER: {int, float}, _STR: {str}, _BOOL: {bool, object}}
_NO_BOX = [np.nan] * 4


def _read_json(path: str | Path) -> None:
    """Word json.load's error for the file at ``path``; only ``_Reader.top`` calls it."""
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"{p}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (ValueError, RecursionError) as e:  # a too-long integer, non-UTF-8 bytes, deep nesting
        raise FormatError(f"{p}: invalid JSON: {e}") from e


class _Rows:
    """Records being checked, as columns by name: ``""`` holds the records,
    ``"key"`` the value under key of each record (``_MISSING`` where it has
    none), ``"side.key"`` the value under key of each record's ``side``
    object, and ``"bbox.0"`` to ``"bbox.3"`` the members of each ``bbox``
    list of 4 (NaN where it is not a list). ``where(row)`` names a record in
    messages, and ``context`` holds what references are checked against."""

    def __init__(self, records: list, where: Callable[[int], str], **context):
        self.columns: dict[Any, Any] = {"": records}
        self.where = where
        self.context = context

    def __len__(self) -> int:
        return len(self.columns[""])

    def __getitem__(self, column: str):
        if column not in self.columns:
            parent, _, key = column.rpartition(".")
            values = self[parent]
            if key.isdigit():
                if not set(map(type, values)) <= {list}:
                    values = [v if type(v) is list else _NO_BOX for v in values]
                members = list(chain.from_iterable(values))
                self.columns.update((f"{parent}.{k}", members[k::4]) for k in range(4))
            else:
                try:
                    values = list(map(itemgetter(key), values))
                except (KeyError, TypeError):  # a value lacks the key or is not an object
                    values = [(v if type(v) is dict else {}).get(key, _MISSING) for v in values]
                self.columns[column] = values
        return self.columns[column]

    def given(self, column: str) -> np.ndarray:
        """Which rows hold a value in ``column`` (not absent, not null), kept as a column."""
        if (column,) not in self.columns:
            values = self[column]
            self.columns[column,] = ~(_is(values, _MISSING) | _is(values, None))
        return self.columns[column,]

    def check(self, rules: tuple[tuple[str, ...], ...]) -> _Rows:
        """Apply ``rules`` in order and raise the first error they find. A
        rule is a check's name, its column and, for optional values, the
        column a row must hold a value in to be checked."""
        error = None
        for check, column, *optional in rules:
            bad, error_class, message = _CHECKS[check]
            refused = bad(self, column) & self.given(*optional) if optional else bad(self, column)
            if refused.any():
                row = int(refused.argmax())
                parent, key = _named(column)
                error = error_class(message.format(
                    where=self.where(row), parent=parent, key=key, check=check,
                    value=self[column][row],
                ))
                self.columns = {name: values[:row] for name, values in self.columns.items()}
        if error is not None:
            raise error
        return self


def _named(column: str) -> tuple[str, str]:
    """How messages name ``column``: the path of the object that holds it
    (".original", or "" for the record itself) and its key, box members
    left out."""
    *parents, key = [part for part in column.split(".") if not part.isdigit()]
    return "".join(f".{p}" for p in parents), key


# Each mask below first tests the whole column at once, which is cheaper, and
# builds the mask value by value only when that test fails.

def _is(values, obj) -> np.ndarray:
    if not any(map(is_, values, repeat(obj))):
        return np.zeros(len(values), bool)
    return np.fromiter(map(is_, values, repeat(obj)), bool, len(values))


def _not_of(types: set, values) -> np.ndarray:
    if set(map(type, values)) <= types:
        return np.zeros(len(values), bool)
    return ~np.fromiter(map(types.__contains__, map(type, values)), bool, len(values))


def _not_boxes(rows: _Rows, column: str) -> np.ndarray:
    """Values that are not a list of 4."""
    values = rows[column]
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {4}:
        return np.zeros(len(values), bool)
    return np.fromiter((type(v) is not list or len(v) != 4 for v in values), bool, len(values))


def _floats(rows: _Rows, column: str) -> np.ndarray:
    """Refuse an integer past the float range; the column becomes float64
    (NaN where refused)."""
    values = rows[column]
    try:
        rows.columns[column] = np.fromiter(values, np.float64, len(values))
        return np.zeros(len(values), bool)
    except OverflowError:
        floats = list(map(_float_or_none, values))
        rows.columns[column] = np.array(floats, np.float64)  # None becomes NaN
        return _is(floats, None)


def _float_or_none(value: int | float) -> float | None:
    try:
        return float(value)
    except OverflowError:
        return None


def _unknown(rows: _Rows, column: str) -> np.ndarray:
    """Values the context does not hold under the column's key: ids, or
    names outside a tuple of names (a tuple compares values, so it takes
    any value)."""
    known = rows.context[_named(column)[1]]
    return ~np.fromiter(map(known.__contains__, rows[column]), bool, len(rows))


def _outside_unit_range(rows: _Rows, column: str) -> np.ndarray:
    return ~((0.0 <= rows[column]) & (rows[column] <= 1.0))


def _xywh(rows: _Rows, column: str) -> np.ndarray:
    """The boxes of ``column`` as an (n, 4) float64 array, which then
    replaces the column."""
    if not isinstance(rows[column], np.ndarray):
        rows.columns[column] = np.stack([rows[f"{column}.{k}"] for k in range(4)], axis=1)
    return rows[column]


def _unclamped(rows: _Rows, column: str) -> np.ndarray:
    """Clamp the ``bbox`` column to the images ``column`` names as ``max(x,
    0.0)`` and ``min(x + w, width)`` do, refusing a box left without area.
    NaN sides pass here and fail ``finite``; a positive clamped width lies
    between 0 and the finite image width, so it and its x are finite
    (likewise for heights)."""
    image_rows = rows.context[column]
    images = np.fromiter(map(image_rows.__getitem__, rows[column]), np.intp, len(rows))
    width, height = rows.context["image_sizes"][images].T
    x, y, w, h = _xywh(rows, "bbox").T
    with np.errstate(over="ignore", invalid="ignore"):
        right, bottom = x + w, y + h
        x0 = np.where(0.0 > x, 0.0, x)
        y0 = np.where(0.0 > y, 0.0, y)
        w = np.where(width < right, width, right) - x0
        h = np.where(height < bottom, height, bottom) - y0
    rows.columns["bbox"] = np.stack((x0, y0, w, h), axis=1)
    return (w <= 0) | (h <= 0)


def _repeats(values, seen: set) -> np.ndarray:
    """Which values occur at an earlier row or in ``seen``, which then takes them."""
    n = len(values)
    first = dict(zip(reversed(values), range(n - 1, -1, -1)))
    repeats = np.fromiter(map(first.__getitem__, values), np.intp, n) != np.arange(n)
    repeats |= np.fromiter(map(seen.__contains__, values), bool, n)
    seen.update(first)
    return repeats


def _sides_unlike_kind(rows: _Rows, column: str) -> np.ndarray:
    """Ledger entries whose boxes do not fit their noise type, which
    ``column`` holds: as inject writes them, a missing entry has only an
    original box, a spurious one only a perturbed box and the others both."""
    kinds = np.array(rows[column], dtype=str)
    return (rows.given("original") != (kinds != "spurious")) | (
        rows.given("perturbed") != (kinds != "missing")
    )


# The checks a rule can name, each as the mask of the rows it refuses (given
# the rows and the rule's column), an error class and a message template. A
# message is formatted with the row's name as ``where``, the column's
# ``parent`` and ``key`` as :func:`_named` gives them, the check's name as
# ``check`` and the row's value in the column as ``value``.
_CHECKS: dict[str, tuple[Callable[[_Rows, str], np.ndarray], type[AuditError], str]] = {
    "present": (
        lambda rows, column: _is(rows[column], _MISSING),
        FormatError, "{where}{parent}: missing required key '{key}'",
    ),
    **{
        kind: (
            lambda rows, column, types=types: _not_of(types, rows[column]),
            FormatError, "{where}{parent}.{key}: expected {check}, got {value!r}",
        )
        for kind, types in _TYPES.items()
    },
    "float": (_floats, FormatError, "{where}{parent}.{key}: integer past the float range"),
    "known": (_unknown, DanglingReferenceError, "{where}{parent}: unknown {key} {value}"),
    "noise_type": (_unknown, FormatError, "{where}: unknown {key} {value!r}"),
    "verdict_kind": (_unknown, FormatError, "{where}.{key}: unknown kind {value!r}"),
    "score": (_outside_unit_range, InvalidScoreError, "{where}: score {value} outside [0, 1]"),
    "quality": (_outside_unit_range, InvalidScoreError, "{where}.{key}: {value} outside [0, 1]"),
    "box": (
        _not_boxes, FormatError,
        "{where}{parent}.{key}: must be a list of 4 numbers, got {value!r}",
    ),
    "clamped": (
        _unclamped, InvalidInputError,
        "{where}: zero-area box after clamping to image {value} bounds",
    ),
    "finite": (
        lambda rows, column: ~np.isfinite(_xywh(rows, column)).all(1),
        InvalidInputError, NOT_FINITE,
    ),
    "degenerate": (
        lambda rows, column: (_xywh(rows, column)[:, 2:] <= 0).any(1),
        InvalidInputError, DEGENERATE,
    ),
    "positive": (
        lambda rows, column: np.fromiter(
            (w <= 0 or h <= 0 for w, h in zip(rows["width"], rows["height"])), bool, len(rows)
        ),
        FormatError, "{where}: image dimensions must be positive",
    ),
    "sides": (
        _sides_unlike_kind, FormatError,
        "{where}: boxes do not fit noise_type {value!r}: missing has only an original, "
        "spurious only a perturbed and the other kinds both",
    ),
    "repeated": (
        lambda rows, column: _repeats(rows[column], rows.context["seen"]),
        DuplicateIdError, "{where}: duplicate {key} {value}",
    ),
    "object": (
        lambda rows, column: _not_of({dict}, rows[column]),
        FormatError, "{where}: must be a JSON object, got {value!r}",
    ),
    "list": (
        lambda rows, column: _not_of({list}, rows[column]),
        FormatError, "{where}: '{key}' must be a list",
    ),
}


def _fields(kind: str, *columns: str) -> list[tuple[str, str]]:
    """Rules for required values of ``kind``; numbers are then floats."""
    checks = ("present", kind, "float") if kind == _NUMBER else ("present", kind)
    return [(check, column) for column in columns for check in checks]


def _box(column: str) -> list[tuple[str, str]]:
    """Rules for an [x, y, w, h] list of 4 numbers within the float range."""
    members = [f"{column}.{k}" for k in range(4)]
    return [("box", column), *((_NUMBER, m) for m in members), *(("float", m) for m in members)]


def _lists(data: Any, path: str | Path, keys: tuple[str, ...]) -> list[list]:
    """The lists under ``keys`` of a file's top-level JSON object."""
    rules = [*(("present", key) for key in keys), *(("list", key) for key in keys)]
    rows = _Rows([data], lambda row: str(path)).check(rules)
    return [rows[key][0] for key in keys]


def _check_unique(ids: np.ndarray, kind: str) -> None:
    """Refuse the first id equal to an earlier one."""
    ordered = ids[order := np.argsort(ids, kind="stable")]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if len(repeats):
        raise DuplicateIdError(f"duplicate {kind} id {ids[repeats.min()]}")


# --- reading a file a block of records at a time --------------------------------

_CHUNK = 1 << 16  # characters read from a file at a time
_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace JSON allows
_CUT = re.compile(r"}(?=[ \t\n\r]*(,[ \t\n\r]*{|]))")  # a "}" before ", {" or "]" may end a record
_scan = json.JSONDecoder().scan_once


class _Reader:
    """The JSON file at ``path`` read ``_CHUNK`` characters at a time;
    ``text[pos:]`` is read and not consumed. Every loop consumes input,
    reads more or ends, so no input makes it spin."""

    def __init__(self, path: str | Path):
        self.path, self.text, self.pos, self.eof = path, "", 0, False

    def fill(self, n: int = 0) -> None:
        """Read until ``n`` characters, and a chunk, are held unconsumed or the file ends."""
        n = max(n, _CHUNK)
        while len(self.text) - self.pos < n and not self.eof:
            more = self.fh.read(n)
            self.text, self.pos, self.eof = self.text[self.pos:] + more, 0, not more

    def char(self, chars: str = "") -> str:
        """The next character past whitespace, "" at the end of the file;
        given ``chars``, it must be one of them and is consumed."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        while self.pos == len(self.text) and not self.eof:
            self.fill()
            self.pos = _SPACE.match(self.text, self.pos).end()
        c = self.text[self.pos:self.pos + 1]
        if chars and (not c or c not in chars):
            raise ValueError(f"expected one of {chars!r}")
        self.pos += bool(chars)
        return c

    def value(self) -> Any:
        """Decode the next value past whitespace, doubling the text held until
        it decodes and a held character follows that cannot go on a number."""
        self.char()
        n = 0
        while True:
            self.fill(n)
            try:
                value, end = _scan(self.text, self.pos)
                if self.eof or end < len(self.text) and self.text[end] not in "+-.0123456789Ee":
                    self.pos = end
                    return value
            except (StopIteration, json.JSONDecodeError):
                if self.eof:
                    raise ValueError("no JSON value") from None
            n = 2 * (len(self.text) - self.pos)

    def sliced(self) -> list:
        """The records from ``pos`` to the last possible cut held, by one
        json.loads, else to the last one before its error; [] if neither
        parses. The text starts at a value of the list, so it parses only
        when the cut closes one: a cut in a string leaves it open, a cut in a
        record leaves its brace open."""
        text, pos, end, cut = self.text, self.pos, len(self.text), None
        for _ in range(2):
            while cut is None and (end := text.rfind("}", pos, end)) >= 0:
                cut = _CUT.match(text, end)
            if cut is None:
                break
            try:
                records = json.loads("[" + text[pos:cut.end()] + "]")
            except json.JSONDecodeError as e:
                end, cut = pos + e.pos - 1, None
            else:
                self.pos = cut.end()
                return records
        return []

    def member(self) -> Iterator[Any]:
        """The value at ``pos`` if it is not a list, else an empty block and
        then the list's records a block at a time, each what :meth:`sliced`
        decodes or else one record; only the first block is empty."""
        if self.char() != "[":
            yield self.value()
            return
        self.pos += 1
        yield []
        end = self.char() == "]"
        self.pos += end
        while not end:
            self.fill()
            yield self.sliced() or [self.value()]
            end = self.char(",]") == "]"

    def top(self) -> Iterator[tuple[str | None, Any]]:
        """(key, event) for each :meth:`member` event of each member of the
        top-level object, with key None for a top-level value that is not an
        object. ``_read_json`` words why a file cannot be read."""
        try:
            with open(self.path, encoding="utf-8") as self.fh:
                if self.char() == "{":
                    self.pos += 1
                    more = self.char() != "}"
                    self.pos += not more
                    while more:
                        if self.char() != '"':
                            raise ValueError("expected a key")
                        key = self.value()
                        self.char(":")
                        yield from ((key, event) for event in self.member())
                        more = self.char(",}") == ","
                else:
                    yield from ((None, event) for event in self.member())
                if self.char():
                    raise ValueError("extra data")
        except (OSError, ValueError, RecursionError) as e:
            _read_json(self.path)
            raise FormatError(f"{self.path}: invalid JSON: {e}") from e


def _grown(column: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``column`` followed by ``block``, in place when ``block`` casts to its type."""
    if not np.can_cast(block.dtype, column.dtype):
        return np.concatenate((column, block))
    # no list is then held twice; nothing views the column
    column.resize((len(column) + len(block), *block.shape[1:]), refcheck=False)
    column[len(column) - len(block):] = block
    return column


def _read_list(
    path: str | Path, key: str | None, name: str, rules: tuple,
    columns: Callable[[_Rows], tuple], held: tuple[str, ...] = (), **context,
) -> tuple[dict, list[np.ndarray], tuple[AuditError, Any] | None]:
    """Read a JSON file a block of records at a time. Returns its top-level
    members (a list as [] unless ``held``), the arrays ``columns`` takes of
    each block of the list under ``key`` (the top level when None) that
    ``rules`` pass, up to the first refusal, and that refusal with its
    record, or None. Of a repeated key the last counts."""
    found, arrays, refused = {}, [], None
    for member, block in _Reader(path).top():
        if type(block) is not list or not block:  # a value under the key; a list starts empty
            found[member] = block
            if member == key:
                arrays, refused, start, seen = [], None, 0, set()
        elif member in held:
            found[member] += block
        if member == key and type(found[key]) is list and refused is None:
            rows = _Rows(block, lambda row, s=start: f"{name}[{s + row}]", seen=seen, **context)
            try:
                rows.check(rules)
            except AuditError as e:
                refused = e, block[len(rows)]
            taken = columns(rows)
            arrays = list(map(_grown, arrays, taken)) if arrays else [np.array(a) for a in taken]
            start += len(block)
    return found, arrays, refused


def _load_list(
    path: str | Path, key: str | None, name: str, rules: tuple,
    columns: Callable[[_Rows], tuple], **context,
) -> list[np.ndarray]:
    """The arrays :func:`_read_list` reads; a refusal is raised once the file ends."""
    found, arrays, refused = _read_list(path, key, name, rules, columns, **context)
    if key is None and type(found.get(key)) is not list:
        raise FormatError(f"{path}: top level must be a JSON list of {name}")
    if key is not None:
        _lists(found, path, (key,))
    if refused is not None:
        raise refused[0]
    return arrays


# --- ground truth ------------------------------------------------------------

_IMAGE_RULES = (
    *_fields(_INT, "id", "width", "height"),
    *_fields(_STR, "file_name"),
    ("positive", ""),
    ("float", "width"),  # boxes are clamped to the image as floats
    ("float", "height"),
)
_CATEGORY_RULES = (*_fields(_INT, "id"), *_fields(_STR, "name"))
# a box clamped to the image it is on; "clamped" names the image ids, which
# its message shows, and clamps the "bbox" column
_PLACED_BOX_RULES = (
    ("present", "bbox"), *_box("bbox"), ("clamped", "image_id"), ("finite", "bbox"),
    ("degenerate", "bbox"),
)
_ANNOTATION_RULES = (
    *_fields(_INT, "id", "image_id", "category_id"),
    ("known", "image_id"),
    ("known", "category_id"),
    *_PLACED_BOX_RULES,
)


# the annotation rules that need the images or categories check the kept
# columns once the file ends, ``_SLICE`` rows at a time; the others each block
_PLACING = ("known", "clamped", "finite", "degenerate")
_PLACING_RULES = tuple(rule for rule in _ANNOTATION_RULES if rule[0] in _PLACING)
_BLOCK_RULES = tuple(rule for rule in _ANNOTATION_RULES if rule not in _PLACING_RULES)
_SLICE = 1 << 12


def load_ground_truth(path: str | Path) -> Dataset:
    """Load and validate a COCO-format annotation file, read by the block
    reader and kept as columns; the annotation rules that need images or
    categories wait for its end. Of a repeated key the last list counts.

    Boxes are clamped to their image bounds; zero-area boxes, duplicate ids,
    and references to unknown images or categories are rejected with typed
    errors. ``iscrowd``, ``segmentation``, and ``area`` fields are accepted
    and ignored.
    """
    found, arrays, refused = _read_list(
        path, "annotations", "annotations", _BLOCK_RULES,
        lambda rows: (*map(int_array, (rows["id"], rows["image_id"], rows["category_id"])),
                      _xywh(rows, "bbox")),
        held=("images", "categories"),
    )
    if None in found:
        raise FormatError(f"{path}: top level must be a JSON object")
    raw_images, raw_cats, _ = _lists(found, path, ("images", "categories", "annotations"))

    rows = _Rows(raw_images, lambda row: f"images[{row}]").check(_IMAGE_RULES)
    _check_unique(int_array(rows["id"]), "image")
    images = [ImageInfo(r["id"], r["width"], r["height"], r["file_name"]) for r in raw_images]

    rows = _Rows(raw_cats, lambda row: f"categories[{row}]").check(_CATEGORY_RULES)
    _check_unique(int_array(rows["id"]), "category")
    names = dict(zip(rows["id"], rows["name"]))
    categories = [Category(dense, names[src], src) for dense, src in enumerate(sorted(names), 1)]

    del found, raw_images  # so the image records are not held while the boxes are checked
    ids, image_ids, category_ids, xywh = arrays
    placement, classes = _placement(images, categories), np.empty(len(ids), np.int64)
    for start in range(0, len(ids), _SLICE):
        part = slice(start, start + _SLICE)
        rows = _Rows(ids[part], lambda row, s=start: f"annotations[{s + row}]", **placement)
        rows.columns.update(image_id=image_ids[part].tolist(),
                            category_id=category_ids[part].tolist(), bbox=xywh[part])
        classes[part], xywh[part] = _dense(rows.check(_PLACING_RULES)), rows["bbox"]
    if refused is not None:  # its row may fail a rule before the one that refused it
        _Rows([refused[1]], lambda _: f"annotations[{len(ids)}]", **placement).check(
            _ANNOTATION_RULES)
        raise refused[0]
    _check_unique(ids, "annotation")
    return Dataset(images, categories, BoxColumns(
        ids, image_ids, classes, np.full(len(ids), np.nan), xywh
    ))


def _placement(images: list[ImageInfo], categories: list[Category]) -> dict:
    """The context of boxes placed on ``images`` by image id and source
    category id."""
    return dict(
        image_id={img.id: k for k, img in enumerate(images)},
        category_id={c.source_id: c.id for c in categories},
        image_sizes=np.array([(float(i.width), float(i.height)) for i in images]).reshape(-1, 2),
    )


def _dense(rows: _Rows) -> np.ndarray:
    """The dense ids of the checked source category ids of placed boxes."""
    source_to_dense = rows.context["category_id"]
    return np.fromiter(map(source_to_dense.__getitem__, rows["category_id"]), np.int64, len(rows))


# --- predictions --------------------------------------------------------------

_DETECTION_RULES = (
    *_fields(_INT, "image_id", "category_id"),
    *_fields(_NUMBER, "score"),
    ("known", "image_id"),
    ("known", "category_id"),
    ("score", "score"),
    *_PLACED_BOX_RULES,
)


def load_predictions(path: str | Path, ds: Dataset) -> PredictionSet:
    """Load a COCO detection-results file against an already-loaded dataset.

    Entries are assigned fresh sequential ids. Unknown image or category ids
    and scores outside [0, 1] are rejected.
    """
    image_ids, classes, scores, xywh = _load_list(
        path, None, "detections", _DETECTION_RULES,
        lambda rows: (int_array(rows["image_id"]), _dense(rows), rows["score"], rows["bbox"]),
        **_placement(ds.images, ds.categories),
    )
    return PredictionSet(BoxColumns(
        np.arange(1, len(scores) + 1, dtype=np.int64), image_ids, classes, scores, xywh
    ))


# --- JSON writers ------------------------------------------------------------------
#
# ledger.json, report.json and roc.json are written by one encoder, in the
# layout json.dump gives them with sorted keys and indent 2. A list's records
# are written ``_BLOCK`` at a time: a block's numbers are spelled a column at
# a time, its records are str.format templates filled with them, and the
# block takes one write. Before Python 3.13 an indented json.dump runs the
# pure-Python encoder with one write per token, and the mirror it encodes
# would hold every record as a dict. noisy.json is flat, so json.dumps writes
# it through the C encoder.

_BLOCK = 256  # records spelled and written at a time
_json_str = json.encoder.encode_basestring_ascii
_json_int = int.__repr__


def _blocks(n: int):
    """Slices of ``_BLOCK`` rows covering rows 0 to ``n``."""
    return (slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def _json_numbers(column: np.ndarray) -> list[str]:
    """The numbers of a column spelled as json.dump spells them: integers
    (int64, or Python ints past it) through ``int.__repr__``, floats through
    ``float.__repr__``, with json's NaN and Infinity spellings only when the
    column holds a non-finite float."""
    values = column.tolist()
    if column.dtype.kind != "f":
        return list(map(int.__repr__, values))
    if np.isfinite(column).all():
        return list(map(float.__repr__, values))
    return list(map(json.dumps, values))


def _json_list(items: list[str], indent: int) -> str:
    """Encoded ``items`` as an indented JSON list whose closing bracket sits
    ``indent`` spaces in."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_object(keys: tuple[str, ...], indent: int) -> str:
    """A ``str.format`` template of an indented JSON object with ``keys``
    (given sorted), one field per value, whose closing brace sits ``indent``
    spaces in."""
    pad = "\n" + " " * indent
    return "{{" + ",".join(f'{pad}  "{k}": {{}}' for k in keys) + pad + "}}"


def _json_bboxes(xywh: np.ndarray, indent: int) -> list[str]:
    """Each [x, y, w, h] row as a JSON list whose closing bracket sits
    ``indent`` spaces in."""
    return list(map(_json_list(["{}"] * 4, indent).format, *map(_json_numbers, xywh.T)))


_BOX_KEYS = ("bbox", "category_id", "id", "image_id")


def _json_boxes(boxes: BoxColumns, dense_to_source: dict[int, int], indent: int) -> list[str]:
    """Each box as a JSON record of its bbox, source category id, id and
    image id, and its score when it is a prediction, whose closing brace
    sits ``indent`` spaces in."""
    plain = _json_object(_BOX_KEYS, indent)
    scored = _json_object((*_BOX_KEYS, "score"), indent)
    predicted = boxes.predicted
    scores = iter(_json_numbers(boxes.scores[predicted]))
    rows = zip(
        _json_bboxes(boxes.xywh, indent + 2),
        map(_json_int, map(dense_to_source.__getitem__, boxes.classes.tolist())),
        _json_numbers(boxes.ids),
        _json_numbers(boxes.image_ids),
    )
    return [
        scored.format(*row, next(scores)) if p else plain.format(*row)
        for p, row in zip(predicted.tolist(), rows)
    ]


def _write_object(path: str | Path, fields: dict) -> None:
    """Write a JSON object whose values are encoded text or iterables of
    blocks of encoded records, the records listed one block per write."""
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{"
        for key in sorted(fields):
            fh.write(f'{sep}\n  "{key}": ')
            sep = ","
            value = fields[key]
            if isinstance(value, str):
                fh.write(value)
                continue
            start = "[\n    "
            for block in value:
                if block:
                    fh.write(start + ",\n    ".join(block))
                    start = ",\n    "
            fh.write("[]" if start == "[\n    " else "\n  ]")
        fh.write("\n}\n")


def _json_mirror(path: Path) -> Path:
    """The JSON mirror of the CSV at ``path``, which must be another file."""
    if path.with_suffix(".json") == path:
        raise InvalidInputError(f"{path}: the CSV would be overwritten by its .json mirror")
    return path.with_suffix(".json")


# --- dataset and ledger persistence ------------------------------------------------


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to COCO format so that loading it reproduces
    the in-memory value exactly."""
    boxes = ds.columns
    dense_to_source = ds.dense_to_source()
    with np.errstate(over="ignore"):  # the area of a box on a huge image may be inf
        areas = (boxes.xywh[:, 2] * boxes.xywh[:, 3]).tolist()
    payload = {
        "images": [
            {"id": i.id, "width": i.width, "height": i.height, "file_name": i.file_name}
            for i in ds.images
        ],
        "categories": [{"id": c.source_id, "name": c.name} for c in ds.categories],
        "annotations": [
            {
                "id": i, "image_id": image_id, "category_id": dense_to_source[c],
                "bbox": bbox, "area": area, "iscrowd": 0,
            }
            for i, image_id, c, bbox, area in zip(
                boxes.ids.tolist(), boxes.image_ids.tolist(), boxes.classes.tolist(),
                boxes.xywh.tolist(), areas,
            )
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


# an entry's template by whether it has an original and a perturbed box
_LEDGER_ENTRY = {
    (o, p): _json_object(
        ("annotation_id", "noise_type") + ("original",) * o + ("perturbed",) * p, 4
    )
    for o in (False, True) for p in (False, True)
}


def save_ledger(ledger: NoiseLedger, path: str | Path, categories: list[Category]) -> None:
    """Persist a noise ledger; category ids are written in source-id space."""
    dense_to_source = {c.id: c.source_id for c in categories}
    # the boxes of entries start:stop are rows offsets[start]:offsets[stop] of their side
    offsets = [np.r_[0, np.cumsum(has)] for has in (ledger.has_original, ledger.has_perturbed)]

    def entry_blocks():
        for block in _blocks(len(ledger)):
            o_rows, p_rows = (slice(ends[block.start], ends[block.stop]) for ends in offsets)
            o_json = iter(_json_boxes(ledger.original.take(o_rows), dense_to_source, 6))
            p_json = iter(_json_boxes(ledger.perturbed.take(p_rows), dense_to_source, 6))
            yield [
                _LEDGER_ENTRY[o, p].format(
                    ann_id, _json_str(kind), *islice(o_json, o), *islice(p_json, p)
                )
                for ann_id, kind, o, p in zip(
                    _json_numbers(ledger.annotation_ids[block]), ledger.kinds[block].tolist(),
                    ledger.has_original[block].tolist(), ledger.has_perturbed[block].tolist(),
                )
            ]

    _write_object(path, {"entries": entry_blocks()})


_LEDGER_SIDES = ("original", "perturbed")


def _ledger_box(side: str) -> list[tuple[str, ...]]:
    """Rules for the box an entry holds as ``side``: taken as written, so it
    must be finite with a positive width and height, as a :class:`BBox`
    must."""
    box = f"{side}.bbox"
    rules = [
        *_fields(_INT, f"{side}.category_id"), ("known", f"{side}.category_id"),
        ("present", box), *_box(box),
        *_fields(_INT, f"{side}.id", f"{side}.image_id"), ("known", f"{side}.image_id"),
        ("finite", box), ("degenerate", box),
    ]
    return [(*rule, side) for rule in rules]


_LEDGER_RULES = (
    ("present", "noise_type"),
    ("noise_type", "noise_type"),
    *_fields(_INT, "annotation_id"),
    *(rule for side in _LEDGER_SIDES for rule in _ledger_box(side)),
    ("sides", "noise_type"),
)


def load_ledger(path: str | Path, ds: Dataset) -> NoiseLedger:
    """Load a noise ledger saved by :func:`save_ledger`."""
    from boxaudit.noise_injection import NoiseKind, NoiseLedger

    source_to_dense = ds.source_to_dense()

    def columns(rows: _Rows) -> tuple:
        sides = []
        for side in _LEDGER_SIDES:
            present = rows.given(side)
            ids, image_ids, category_ids = (
                list(compress(rows[f"{side}.{key}"], present))
                for key in ("id", "image_id", "category_id")
            )
            sides += [
                int_array(ids), int_array(image_ids),
                np.fromiter(map(source_to_dense.__getitem__, category_ids), np.int64, len(ids)),
                rows[f"{side}.bbox"][present], present,
            ]
        return int_array(rows["annotation_id"]), np.array(rows["noise_type"], dtype=str), *sides

    annotation_ids, kinds, *sides = _load_list(
        path, "entries", "entries", _LEDGER_RULES, columns,
        noise_type=tuple(k.value for k in NoiseKind),
        category_id=source_to_dense,
        image_id={img.id for img in ds.images},
    )
    original, perturbed = (
        (BoxColumns(ids, image_ids, classes, np.full(len(ids), np.nan), xywh), present)
        for ids, image_ids, classes, xywh, present in (sides[:5], sides[5:])
    )
    return NoiseLedger(annotation_ids, kinds, *original, *perturbed)


# --- report persistence ---------------------------------------------------------

REPORT_COLUMNS = [
    "cluster_id",
    "image_id",
    "annotation_ids",
    "verdict_kind",
    "quality_score",
    "flagged_class_ids",
]

_CATEGORY = _json_object(("id", "name"), 4)
_SUMMARY = _json_object(
    ("clusters", "flagged_annotations", "flagged_clusters", "missing_regions"), 2
)
_FINDING = _json_object((
    "annotation_ids", "cluster_id", "flagged_classes", "image_id", "prediction_ids",
    "quality_score", "region", "verdict_kind",
), 4)
_VERDICT = _json_object(
    ("annotation_id", "cluster_id", "flagged", "image_id", "quality_score", "region", "verdict_kind"),
    4,
)


def save_report(report: DetectionResult, path: str | Path) -> dict[str, int]:
    """Write a findings report: ``path`` as CSV (one row per flagged cluster;
    refused if it ends in .json) and ``path.with_suffix(".json")`` with full
    cluster membership. Returns the report's summary counts.

    Each flagged partition row is one finding, and findings come in
    partition row order, which is cluster id order for every
    :func:`~boxaudit.pipeline.run_detection` result. A finding carries its
    row's first verdict's kind, score, classes and region, and names its
    members by id: ``annotation_ids`` are its original annotations and
    ``prediction_ids`` its predictions (each the detection's 1-based
    position in the predictions file). Findings and verdicts are written
    ``_BLOCK`` rows at a time.
    """
    from boxaudit.confident_learning import verdict_counts

    path = Path(path)
    mirror = _json_mirror(path)
    table, partition, boxes = report.table, report.partition, report.partition.boxes
    dense_to_source = {c.id: c.source_id for c in report.categories}
    background = len(report.categories) + 1
    rows = np.flatnonzero(report.flagged)
    n_originals = partition.sizes(predicted=False)
    counts = verdict_counts(n_originals, report.flagged)
    firsts = (np.cumsum(counts) - counts)[rows]
    has_region = table.has_region

    def finding_blocks(write_csv: Callable):
        """The findings' JSON records by block; each block's CSV rows go to ``write_csv``."""
        for block in _blocks(len(rows)):
            block_rows, block_firsts = rows[block], firsts[block]
            originals, original_counts = partition.members_of(block_rows, predicted=False)
            predictions, predicted_counts = partition.members_of(block_rows, predicted=True)
            ann_ids = iter(_json_numbers(boxes.ids[originals]))
            prediction_ids = iter(_json_numbers(boxes.ids[predictions]))
            with_region = has_region[block_firsts]
            regions = iter(_json_bboxes(table.regions[block_firsts[with_region]], 6))
            csv_rows, records = [], []
            findings = zip(
                _json_numbers(partition.cluster_ids[block_rows]),
                _json_numbers(partition.image_ids[block_rows]),
                block_firsts.tolist(), _json_numbers(table.quality[block_firsts]),
                table.kinds[block_firsts].tolist(), with_region.tolist(),
                original_counts.tolist(), predicted_counts.tolist(),
            )
            for cluster_id, image_id, first, q, kind, region, n_orig, n_pred in findings:
                finding_ann_ids = list(islice(ann_ids, n_orig))
                labels = [
                    "background" if m == background else str(dense_to_source.get(m, m))
                    for m in table.flagged_classes[first]
                ]
                csv_rows.append([
                    cluster_id, image_id, ";".join(finding_ann_ids), kind,
                    f"{table.quality[first]:.6f}", ";".join(labels),
                ])
                records.append(_FINDING.format(
                    _json_list(finding_ann_ids, 6), cluster_id,
                    _json_list(list(map(_json_str, labels)), 6), image_id,
                    _json_list(list(islice(prediction_ids, n_pred)), 6), q,
                    next(regions) if region else "null", _json_str(kind),
                ))
            write_csv(csv_rows)
            yield records

    def verdict_blocks():
        for block in _blocks(len(table)):
            regions = iter(_json_bboxes(table.regions[block][has_region[block]], 6))
            yield list(map(
                _VERDICT.format,
                ["null" if a is None else _json_int(a) for a in table.annotation_ids[block]],
                _json_numbers(table.cluster_ids[block]),
                ["true" if f else "false" for f in table.flagged[block].tolist()],
                _json_numbers(table.image_ids[block]), _json_numbers(table.quality[block]),
                [next(regions) if r else "null" for r in has_region[block].tolist()],
                map(_json_str, table.kinds[block].tolist()),
            ))

    summary = {
        "clusters": len(partition),
        "flagged_clusters": len(rows),
        "flagged_annotations": int(n_originals[rows].sum()),
        "missing_regions": int(np.count_nonzero(n_originals[rows] == 0)),
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        _write_object(mirror, {
            "categories": _json_list([
                _CATEGORY.format(_json_int(c.source_id), _json_str(c.name))
                for c in report.categories
            ], 2),
            "findings": finding_blocks(writer.writerows),
            "summary": _SUMMARY.format(*(_json_int(summary[k]) for k in sorted(summary))),
            "verdicts": verdict_blocks(),
        })
    return summary


_VERDICT_RULES = (
    ("object", ""),
    (_INT, "annotation_id", "annotation_id"),
    *_fields(_INT, "cluster_id", "image_id"),
    *_fields(_NUMBER, "quality_score"),
    ("present", "verdict_kind"),
    (_BOOL, "flagged"),
    ("verdict_kind", "verdict_kind"),
    ("quality", "quality_score"),
    *((*rule, "region") for rule in _box("region")),
    ("finite", "region", "region"),
    ("degenerate", "region", "region"),
    ("known", "image_id"),
    ("known", "annotation_id", "annotation_id"),
    ("repeated", "annotation_id", "annotation_id"),
)


def load_report(path: str | Path, ds: Dataset) -> VerdictTable:
    """Reload the verdicts from a report's JSON mirror (for the ``roc``
    stage's file-based handoff), against the dataset the report covers.

    Every verdict must carry a known kind, a quality score in [0, 1], a
    boolean ``flagged`` (false when absent) and ids of the dataset's images
    and annotations; an annotation may have one verdict only. The flagged
    classes are not reloaded, and the findings are only checked for syntax.
    """
    from boxaudit.confident_learning import VERDICT_KINDS, VerdictTable

    def columns(rows: _Rows) -> tuple:
        n = len(rows)
        annotation_ids = np.array(rows["annotation_id"], dtype=object).reshape(n)
        annotation_ids[~rows.given("annotation_id")] = None
        return (
            annotation_ids, int_array(rows["cluster_id"]), int_array(rows["image_id"]),
            rows["quality_score"], _is(rows["flagged"], True),
            np.array(rows["verdict_kind"], dtype=object).reshape(n), rows["region"],
        )

    table = _load_list(
        path, "verdicts", "verdicts", _VERDICT_RULES, columns,
        verdict_kind=VERDICT_KINDS,
        image_id={img.id for img in ds.images},
        annotation_id=set(ds.columns.ids.tolist()),
    )
    return VerdictTable(*table, [()] * len(table[0]))


# --- ROC persistence -------------------------------------------------------------

_ROC_POINT = _json_object(("fpr", "threshold", "tpr"), 4)
_ROC_ROW = "{:.6f},{:.6f},{:.6f}\r\n"  # a csv.writer row: no field needs quoting
_ROC_RUN = _json_object(("auroc", "seed"), 4)


def save_roc(
    curve: RocCurve,
    path: str | Path,
    *,
    run_aurocs: list[tuple[int, float]] | None = None,
) -> None:
    """Write a ROC sweep: ``path`` as plottable CSV with an AUROC summary
    line, plus a ``path.with_suffix(".json")`` mirror (with per-run AUROCs
    and their median when several runs were aggregated), refusing a
    ``path`` that already ends in .json."""
    from boxaudit.evaluation import median

    path = Path(path)
    mirror = _json_mirror(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("threshold,fpr,tpr\r\n")
        for block in _blocks(len(curve.thresholds)):
            columns = (curve.thresholds[block], curve.fpr[block], curve.tpr[block])
            fh.write("".join(map(_ROC_ROW.format, *(c.tolist() for c in columns))))
        fh.write(f"# auroc = {curve.auroc:.6f}\n")

    fields = {
        "auroc": _json_numbers(np.array([curve.auroc]))[0],
        "points": (list(map(_ROC_POINT.format, *map(_json_numbers, (
                       curve.fpr[block], curve.thresholds[block], curve.tpr[block]))))
                   for block in _blocks(len(curve.thresholds))),
    }
    if run_aurocs is not None:
        aurocs = [a for _, a in run_aurocs]
        fields["median_auroc"] = _json_numbers(np.array([median(aurocs)]))[0]
        fields["runs"] = [list(map(
            _ROC_RUN.format,
            _json_numbers(np.array(aurocs)),
            _json_numbers(int_array([s for s, _ in run_aurocs])),
        ))]
    _write_object(mirror, fields)
