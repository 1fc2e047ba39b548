"""The end-to-end benchmark's harness (see ``../README.md``)."""
