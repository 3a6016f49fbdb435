"""Genomics substrate: sequences, synthetic data, FASTA/FASTQ, SAM."""
