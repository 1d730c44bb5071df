"""File formats, synthetic desk-scale datasets, and the line-protocol
bridge to external black-box scorers.

It is the only module that reads or writes CSV or writes JSON: one CSV
reader whose errors name the row (and column), one CSV writer, and one
JSON writer and one JSON form of a similarity spec for both model files
and run manifests.
"""

import csv
import json
import os
import selectors
import shlex
import subprocess
import threading

import numpy as np

from . import similarity as sim
from .datatypes import Dataset, SparseModel, is_integer
from .errors import BlackboxError, DataFormatError

MODEL_FORMAT_VERSION = 1

SYNTHETIC_KINDS = ("two_gaussians", "three_clusters", "ring", "sine_regression")
_DEFAULT_N = {"two_gaussians": 25, "three_clusters": 90, "ring": 50, "sine_regression": 200}

# Geometry of the generated datasets (documented so tests can check the
# sample statistics against them).
TWO_GAUSSIANS_CENTERS = np.array([[1.4, 0.0], [-1.4, 0.0]])
TWO_GAUSSIANS_STD = 0.45
THREE_CLUSTERS_CENTERS = np.array([[-1.6, 0.0], [0.0, 0.0], [1.6, 0.0]])
THREE_CLUSTERS_STD = 0.25
# Targets come from a planted model with one weighted bump per center, so
# exactly three prototypes suffice to represent them.
THREE_CLUSTERS_BETAS = (2.0, -2.0, 2.0)
THREE_CLUSTERS_GAMMA = 0.5
RING_RADIUS = 2.0
RING_RADIAL_STD = 0.05
RING_CENTER_STD = 0.2
SINE_RANGE = (-3.0, 3.0)
SINE_FREQ = 2.0
SINE_NOISE_STD = 0.05


def _read_rows(path, columns=(), required=True):
    """Header and data rows of a headered UTF-8 CSV (a leading BOM is skipped).

    Checks that the file has a header row, that no name in ``columns``
    appears in it twice (and, if ``required``, that each appears), and
    that every row has as many cells as the header.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        for name in columns:
            if header.count(name) > 1:
                raise DataFormatError(f"{path}: column {name!r} appears more than once in header {header}")
            if required and name not in header:
                raise DataFormatError(f"{path}: no column named {name!r} in header {header}")
        rows = list(reader)
    for row_num, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {row_num} has {len(row)} cells, header has {len(header)}")
    return header, rows


def _parse_floats(path, header, rows, positions):
    """The cells at ``positions`` of every row as a (rows, positions) float
    array; a cell that does not parse, or parses to nan or an infinity, is
    reported with its row and column."""
    out = np.empty((len(rows), len(positions)))
    for r, row in enumerate(rows):
        for c, pos in enumerate(positions):
            try:
                out[r, c] = float(row[pos])
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r + 2}, column {header[pos]!r}: cannot parse {row[pos]!r}"
                ) from None
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        r, pos = bad[0][0], positions[bad[0][1]]
        raise DataFormatError(f"{path}: row {r + 2}, column {header[pos]!r}: {rows[r][pos]!r} is not finite")
    return out


def load_csv(path, target_column: str, group_column: str = None) -> Dataset:
    """Read a headered CSV into a dataset.

    All columns except the target (and optional group) become features,
    in header order.  Parse failures report the offending row and column.
    """
    if group_column == target_column:
        raise ValueError(f"group column {group_column!r} is the target column")
    columns = [target_column] if group_column is None else [target_column, group_column]
    header, rows = _read_rows(path, columns)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    target_pos = header.index(target_column)
    group_pos = header.index(group_column) if group_column is not None else None
    feature_pos = [i for i in range(len(header)) if i != target_pos and i != group_pos]
    values = _parse_floats(path, header, rows, feature_pos + [target_pos])
    return Dataset(
        features=values[:, :-1],
        targets=values[:, -1],
        groups=np.array([row[group_pos] for row in rows]) if group_pos is not None else None,
    )


def load_features(path, target_column: str = None) -> np.ndarray:
    """Feature matrix of a headered CSV: every column except
    ``target_column`` when the header has it.  A file with a header and no
    data rows gives a (0, d) array."""
    header, rows = _read_rows(path, [target_column], required=False)
    skip = header.index(target_column) if target_column in header else None
    return _parse_floats(path, header, rows, [i for i in range(len(header)) if i != skip])


def write_table(path, header, rows):
    """Write a header row and data rows as CSV.  Floats are written as
    ``repr(float(v))``, which reads back exactly; other cells as ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows
        )


def write_csv(data: Dataset, path):
    """Write a dataset as CSV (features f0..fD-1, then target, then group)."""
    header = [f"f{i}" for i in range(data.dim)] + ["target"]
    rows = np.column_stack([data.features, data.targets]).tolist()
    if data.groups is not None:
        header.append("group")
        rows = [row + [str(g)] for row, g in zip(rows, data.groups)]
    write_table(path, header, rows)


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json(doc, path):
    """Write ``doc`` as indented, key-sorted JSON (numpy values as plain lists and numbers)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def similarity_dict(spec: sim.SimilaritySpec) -> dict:
    """The JSON form of a similarity spec, as model files and manifests store it."""
    gamma = None if spec.gamma is None else float(spec.gamma)
    return {"kind": spec.kind, "gamma": gamma, "blackbox_id": spec.blackbox_id}


def save_model(model: SparseModel, path):
    """Persist a model as versioned JSON; loading reproduces predictions exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "similarity": similarity_dict(model.similarity),
        "prototypes": model.prototypes.tolist(),
        "beta": model.beta.tolist(),
        "bias": model.bias,
        "metadata": model.metadata,
    }
    write_json(doc, path)


def load_model(path) -> SparseModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not a valid model file: {exc}") from exc
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported format_version {version!r}, expected {MODEL_FORMAT_VERSION}"
            )
        spec = sim.SimilaritySpec(
            kind=doc["similarity"]["kind"],
            gamma=doc["similarity"]["gamma"],
            blackbox_id=doc["similarity"]["blackbox_id"],
        )
        return SparseModel(
            prototypes=np.array(doc["prototypes"], dtype=float),
            beta=np.array(doc["beta"], dtype=float),
            bias=float(doc["bias"]),
            similarity=spec,
            metadata=doc.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc!r}") from exc


def gen_synthetic(kind: str, n: int = None, seed: int = 0) -> Dataset:
    """Seeded toy datasets.

    two_gaussians   +-1 labels, class blobs at TWO_GAUSSIANS_CENTERS with
                    isotropic std TWO_GAUSSIANS_STD; class counts differ
                    by at most one.
    three_clusters  three blobs (THREE_CLUSTERS_CENTERS, std
                    THREE_CLUSTERS_STD); targets are the values of a
                    planted model with one RBF bump per center
                    (THREE_CLUSTERS_BETAS, THREE_CLUSTERS_GAMMA), so the
                    ground truth needs exactly three prototypes.
    ring            half the points on a radius-RING_RADIUS circle
                    (label +1), half in a tight blob at the origin (-1).
    sine_regression 1-d inputs uniform on SINE_RANGE with targets
                    sin(SINE_FREQ * x) plus Gaussian noise.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    n = _DEFAULT_N[kind] if n is None else n
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    if kind == "two_gaussians":
        n_pos = (n + 1) // 2
        counts = (n_pos, n - n_pos)
        features = np.vstack(
            [rng.normal(c, TWO_GAUSSIANS_STD, (cnt, 2)) for c, cnt in zip(TWO_GAUSSIANS_CENTERS, counts)]
        )
        targets = np.concatenate([np.ones(counts[0]), -np.ones(counts[1])])
    elif kind == "three_clusters":
        base, extra = divmod(n, 3)
        counts = [base + (1 if i < extra else 0) for i in range(3)]
        features = np.vstack(
            [rng.normal(c, THREE_CLUSTERS_STD, (cnt, 2)) for c, cnt in zip(THREE_CLUSTERS_CENTERS, counts)]
        )
        diff = features[:, None, :] - THREE_CLUSTERS_CENTERS[None, :, :]
        bumps = np.exp(-THREE_CLUSTERS_GAMMA * np.einsum("ijk,ijk->ij", diff, diff))
        targets = bumps @ np.asarray(THREE_CLUSTERS_BETAS)
    elif kind == "ring":
        n_ring = (n + 1) // 2
        angles = rng.uniform(0, 2 * np.pi, n_ring)
        radii = RING_RADIUS + rng.normal(0, RING_RADIAL_STD, n_ring)
        ring_pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        blob = rng.normal(0, RING_CENTER_STD, (n - n_ring, 2))
        features = np.vstack([ring_pts, blob])
        targets = np.concatenate([np.ones(n_ring), -np.ones(n - n_ring)])
    else:
        x = rng.uniform(SINE_RANGE[0], SINE_RANGE[1], n)
        features = x[:, None]
        targets = np.sin(SINE_FREQ * x) + rng.normal(0, SINE_NOISE_STD, n)
    perm = rng.permutation(n)
    return Dataset(features=features[perm], targets=targets[perm])


class blackbox_bridge:
    """Similarity scorer backed by a line-protocol subprocess, spawned by
    ``blackbox_bridge(command)``; the bridge's ``spec`` evaluates through it.

    Requests are single lines ``d a_1 .. a_d b_1 .. b_d``; the scorer
    answers one decimal value per line, in order.  One selector loop in the
    caller's thread writes a block's requests, a few rows at a time, as the
    non-blocking pipe takes them and reads the answers as they come, so no
    full pipe can deadlock it and memory stays bounded.  A per-bridge lock
    serializes whole blocks, so threads may share one bridge.  A block that
    fails part-way, also by the scorer neither reading nor answering for
    ``_RESPONSE_TIMEOUT`` seconds, kills the scorer, and later blocks raise
    an error naming that first failure.  ``spec`` carries the block scorer;
    close the bridge (or use it as a context manager) to release the
    process, its pipes and its selector.  The id, the scorer's command line
    as one shell-quoted string, is saved in model files, so identical runs
    write identical files.
    """

    _CHUNK = 1 << 15  # bytes of request text encoded, and of answers read, at a time
    _TERMINATE_TIMEOUT = 5.0  # seconds close() waits after SIGTERM before it kills the scorer
    _RESPONSE_TIMEOUT = 300.0  # seconds a block waits for the scorer to read or answer before it fails

    def __init__(self, command):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not argv:
            raise BlackboxError(f"empty scorer command {command!r}")
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise BlackboxError(f"could not start scorer {argv!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._lines_read = 0
        self._failure = None
        self._lock = threading.Lock()
        scorer_id = shlex.join(map(str, argv))
        self.spec = sim.SimilaritySpec(kind="blackbox", blackbox_id=scorer_id, scorer=self._evaluate)

    def _requests(self, rows, protos):
        """The request text in pieces of at most ``_CHUNK`` bytes or one row (a float's text is <= 25)."""
        suffixes = [" " + " ".join(map(repr, b)) + "\n" for b in protos.tolist()]
        step = max(1, self._CHUNK // (25 * (2 * rows.shape[1] + 1) * len(suffixes) + 1))
        for start in range(0, len(rows), step):
            heads = [f"{len(a)} " + " ".join(map(repr, a)) for a in rows[start : start + step].tolist()]
            yield "".join([head + tail for head in heads for tail in suffixes]).encode()

    def _exchange(self, rows, protos, values):
        """Write the block's requests and read its answers into ``values``."""
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        expected = 0 if self._selector.select(0) else values.size  # output already waiting is surplus
        self._selector.register(stdin, selectors.EVENT_WRITE)
        requests, pending, partial, filled = self._requests(rows, protos), b"", b"", 0
        while filled < values.size or pending is not None:
            ready = self._selector.select(self._RESPONSE_TIMEOUT)
            if not ready:
                raise BlackboxError(
                    f"scorer sent no response line {self._lines_read + 1} within {self._RESPONSE_TIMEOUT:g} s")
            for key, _ in ready:
                if key.fd == stdin:
                    try:
                        pending = pending or memoryview(next(requests, b""))
                        pending = pending[os.write(stdin, pending) :] if pending else None
                    except BrokenPipeError:  # read on: the error names the first missing answer
                        pending = None
                    if pending is None:
                        self._selector.unregister(stdin)
                    continue
                chunk = os.read(stdout, self._CHUNK)
                if not chunk and filled < values.size:
                    raise BlackboxError(f"scorer closed its output before response line {self._lines_read + 1}")
                *lines, partial = (partial + chunk).split(b"\n")
                if partial and filled + len(lines) == expected:  # a fragment after the last answer
                    lines.append(partial)
                for line in lines:
                    self._lines_read += 1
                    if filled == expected:
                        raise BlackboxError(f"surplus scorer response at line {self._lines_read}")
                    try:
                        values[filled] = float(line)
                    except ValueError:
                        text = line.decode(errors="replace").strip()
                        raise BlackboxError(
                            f"malformed scorer response at line {self._lines_read}: {text!r}"
                        ) from None
                    filled += 1

    def _evaluate(self, rows, protos):
        with self._lock:
            if self._failure is not None:
                raise BlackboxError(f"scorer was stopped after an earlier failure: {self._failure}")
            values = np.empty(rows.shape[0] * protos.shape[0])
            try:
                self._exchange(rows, protos, values)
            except BaseException as exc:
                self._failure = str(exc) or type(exc).__name__
                self._proc.kill()
                self._proc.wait()
                raise
            return values.reshape(rows.shape[0], protos.shape[0])

    def close(self):
        self._selector.close()
        self._proc.stdin.close()
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=self._TERMINATE_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
