"""`python -m kgmix ...` runs the kgmix command line."""
import sys

from .cli import main

sys.exit(main())
