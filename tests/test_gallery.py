"""Golden test: scripts/build_gallery.py regenerates out/gallery byte for byte.

The script writes its JSON files with the stdlib's
``json.dumps(doc, sort_keys=True, indent=2)``, the layout the files were
recorded in, so this test holds the documents the library builds to them.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "out" / "gallery"


def test_gallery_regenerates_byte_identical(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("build_gallery", ROOT / "scripts" / "build_gallery.py")
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    monkeypatch.setattr(gallery, "OUT", tmp_path)
    gallery.main()
    built = sorted(p.name for p in tmp_path.iterdir())
    assert built == sorted(p.name for p in GOLDEN.iterdir())
    for name in built:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
