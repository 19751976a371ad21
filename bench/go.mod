module sourcecurrents/bench

go 1.21

require sourcecurrents v0.0.0

replace sourcecurrents => ../
