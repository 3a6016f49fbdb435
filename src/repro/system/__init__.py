"""Host + FPGA system integration models (paper Sections V, VII-B)."""
