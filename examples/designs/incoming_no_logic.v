// A port list with no logic behind it: the trimmed DFG is empty, so the
// audit reports a diagnostic for this file and still screens the others.
module NO_LOGIC (input a, output y);
endmodule
