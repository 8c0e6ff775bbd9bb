module sperr/bench

go 1.22

require sperr v0.0.0

replace sperr => ../
