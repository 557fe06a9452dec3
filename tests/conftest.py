import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "conic2" / "corpus"
DATA = pathlib.Path(__file__).parent / "data"
