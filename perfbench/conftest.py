import sys

import procenv

procenv.pin()
sys.path.insert(0, str(procenv.SRC))
