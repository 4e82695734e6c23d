"""Regenerate the JSON fixtures shipped inside the package.

Run from the repository root:

    python scripts/make_fixtures.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sftlab import io as sio  # noqa: E402
from sftlab.models import point_model, projective_line_model, two_point_model  # noqa: E402
from sftlab.suites import CYLHOM_FIXTURE_FILES, build_cylhom_fixtures  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sftlab" / "fixtures"


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    sio.save_model(point_model(), FIXTURES / "point.model.json")
    sio.save_model(two_point_model(), FIXTURES / "twopoint.model.json")
    sio.save_model(projective_line_model(), FIXTURES / "p1.model.json")

    datasets = build_cylhom_fixtures()
    for key, fname in CYLHOM_FIXTURE_FILES.items():
        sio.save_counts(datasets[key], FIXTURES / fname)

    circle = {
        "schema": sio.PROFILES_SCHEMA,
        "name": "circle",
        "half_dim": 1,
        "cover_bound": 6,
        "q_degrees": None,
        "signs": None,
    }
    (FIXTURES / "circle.profiles.json").write_text(sio.dumps_canonical(circle))
    geodesic = {
        "schema": sio.PROFILES_SCHEMA,
        "name": "maximal-grading-demo",
        "half_dim": 5,
        "cover_bound": 3,
        "q_degrees": {str(n): 2 for n in range(1, 4)},
        "signs": {"explicit": []},
    }
    (FIXTURES / "geodesic.profiles.json").write_text(sio.dumps_canonical(geodesic))
    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
