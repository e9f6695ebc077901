import gc
import sys

# A run makes no cyclic garbage worth finding, so the collector only costs
# time: it is off for the run, and every object left at exit is frozen, so
# that the interpreter's last collection does not traverse them again.
gc.disable()
try:
    from .cli import main

    sys.exit(main())
finally:
    gc.freeze()
