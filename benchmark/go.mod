module github.com/scriptabs/goscript/benchmark

go 1.22

require github.com/scriptabs/goscript v0.0.0

replace github.com/scriptabs/goscript => ../
