//go:build !amd64

package main

func simdFlags() (avx2, vpopcntdq bool) { return false, false }
