"""The end-to-end BWA-MEM-style aligner with pluggable extension."""
