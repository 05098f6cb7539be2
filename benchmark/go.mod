module github.com/caesar-cep/caesar/benchmark

go 1.22

require github.com/caesar-cep/caesar v0.0.0

replace github.com/caesar-cep/caesar => ../
