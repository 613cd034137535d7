"""CSV serialization for datasets and generator ground truth."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import Dataset, ExampleKind, SkewbenchError
from .datagen import MAJORITY_LABEL, MINORITY_LABEL

# 17 significant digits round-trips any float64 exactly.
_FLOAT_FMT = "{:.17g}"


def format_float(x: float) -> str:
    return _FLOAT_FMT.format(float(x))


def dataset_to_csv_text(ds: Dataset) -> str:
    header = [f"f{i}" for i in range(ds.d)] + ["label"]
    if ds.kinds is not None:
        header.append("kind")
    lines = [",".join(header)]
    for i in range(ds.n):
        row = [format_float(v) for v in ds.points[i]]
        row.append(str(int(ds.labels[i])))
        if ds.kinds is not None:
            row.append(ExampleKind(int(ds.kinds[i])).tag)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_dataset_csv(ds: Dataset, path) -> None:
    Path(path).write_text(dataset_to_csv_text(ds), encoding="ascii", newline="\n")


def _parse_header(header: str) -> tuple[int, bool]:
    fields = header.rstrip("\n").split(",")
    has_kind = fields[-1] == "kind"
    if has_kind:
        fields = fields[:-1]
    if len(fields) < 2 or fields[-1] != "label":
        raise SkewbenchError("line 1: header must be f0,...,f{d-1},label[,kind]")
    d = len(fields) - 1
    if fields[:-1] != [f"f{i}" for i in range(d)]:
        raise SkewbenchError("line 1: feature columns must be named f0..f{d-1}")
    return d, has_kind


def read_dataset_csv(path) -> Dataset:
    """Parse a dataset CSV; malformed rows raise with their line number."""
    # A non-ASCII byte becomes a lone surrogate, which no field below accepts.
    text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    lines = text.splitlines()
    if not lines:
        raise SkewbenchError("line 1: empty file, header expected")
    d, has_kind = _parse_header(lines[0])
    width = d + 1 + (1 if has_kind else 0)
    points, labels, kinds = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SkewbenchError(f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            points.append([float(v) for v in parts[:d]])
        except ValueError:
            raise SkewbenchError(f"line {lineno}: invalid feature value") from None
        try:
            label = int(parts[d])
            if not 0 <= label < 2 ** 63:  # labels are held as int64
                raise ValueError
        except ValueError:
            raise SkewbenchError(f"line {lineno}: invalid label {parts[d]!r}") from None
        labels.append(label)
        if has_kind:
            try:
                kinds.append(int(ExampleKind.from_tag(parts[d + 1])))
            except SkewbenchError:
                raise SkewbenchError(f"line {lineno}: invalid kind {parts[d + 1]!r}") from None
    pts = np.array(points, dtype=np.float64).reshape(len(points), d)
    return Dataset(pts, np.array(labels, dtype=np.int64),
                   np.array(kinds, dtype=np.uint8) if has_kind else None)


def write_ground_truth_csv(gt, path) -> None:
    """Centers as rows, majority first, each with its class label and sub-cluster index."""
    d = gt.minority_centers.shape[1]
    lines = [",".join([f"center_x{i}" for i in range(d)] + ["label", "subcluster"])]
    for label, centers in ((MAJORITY_LABEL, gt.majority_centers),
                           (MINORITY_LABEL, gt.minority_centers)):
        for j, center in enumerate(centers):
            lines.append(",".join([format_float(v) for v in center] + [str(label), str(j)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
