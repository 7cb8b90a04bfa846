module ctxres/bench

go 1.22

require ctxres v0.0.0

replace ctxres => ../
