import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent

# The benchmark's modules are scripts in perfbench/, imported by name, and
# they drive the repro package from the checkout's src/.
sys.path.insert(0, str(PERFBENCH.parent / "src"))
sys.path.insert(0, str(PERFBENCH))
