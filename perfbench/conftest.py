import sys
from pathlib import Path

# Import repro from this checkout, as perfbench/run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
