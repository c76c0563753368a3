"""Every scenario bundle, byte for byte.

The test takes the bundles of all eight scenarios for seeds 0 and 1 (the
session's ``bundles``, see conftest.py) and compares the sha256 of each
file with ``tests/bundle_digests.json``. A changed file is named; for a
``summary.json`` the message also carries the deltas and flags of
``scenarios.compare_runs`` against the committed reference in
``perfbench/reference``. Several outputs have tolerance 0 and their last
bits follow numpy's SIMD code paths, so the manifest records the runtime
SIMD features it was written under, and a mismatch on another CPU says so.

Rewrite the manifest from the current tree, only when an output is meant to
change, with

    PYTHONPATH=src python tests/test_bundle_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:   # numpy < 2
    from numpy.core import _multiarray_umath as umath

from lmcflab import scenarios

MANIFEST = Path(__file__).with_name("bundle_digests.json")
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def simd_features():
    """numpy's runtime SIMD features, as np.show_runtime() reports them."""
    return {"baseline": list(umath.__cpu_baseline__),
            "found": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]}


def digests(root):
    """{path relative to root: sha256} of every file under root."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def describe(root, rel):
    """One line on a file whose digest differs from the manifest's."""
    if Path(rel).name != "summary.json":
        return f"{rel} differs"
    report = scenarios.compare_runs(REFERENCE / Path(rel).parent,
                                    root / Path(rel).parent)
    return (f"{rel} differs; against the reference: "
            f"deltas {report['deltas']}, flagged {report['flagged']}")


def test_every_bundle_file_matches_its_digest(bundles):
    root, _ = bundles
    manifest = json.loads(MANIFEST.read_text())
    got = digests(root)
    expected = manifest["files"]
    problems = [f"{rel} is missing" for rel in sorted(set(expected) - set(got))]
    problems += [f"{rel} is not in the manifest"
                 for rel in sorted(set(got) - set(expected))]
    problems += [describe(root, rel) for rel in sorted(set(got) & set(expected))
                 if got[rel] != expected[rel]]
    if problems and simd_features() != manifest["simd"]:
        problems.append(f"numpy's runtime SIMD features {simd_features()} differ from "
                        f"the manifest's {manifest['simd']}: tolerance-0 outputs "
                        f"may change with the SIMD code path")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    from conftest import write_bundles
    with tempfile.TemporaryDirectory() as tmp:
        write_bundles(Path(tmp))
        files = digests(Path(tmp))
    MANIFEST.write_text(json.dumps({"simd": simd_features(), "files": files},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {MANIFEST}", file=sys.stderr)
