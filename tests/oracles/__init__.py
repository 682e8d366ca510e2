"""Reference implementations the tests pin the fast paths against."""
