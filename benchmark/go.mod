module extbuf/benchmark

go 1.24

require extbuf v0.0.0

replace extbuf => ../
