import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# the checkout's own package first, so a plain `pytest` tests this tree
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
