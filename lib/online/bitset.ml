let bits = Sys.int_size - 1

type t = { mutable words : int array }

let create () = { words = [||] }

let mem s i =
  let w = i / bits in
  w < Array.length s.words && s.words.(w) land (1 lsl (i mod bits)) <> 0

let add s i =
  if i < 0 then invalid_arg "Bitset.add: negative member";
  let w = i / bits in
  let len = Array.length s.words in
  if w >= len then begin
    let words = Array.make (max (w + 1) (2 * len)) 0 in
    Array.blit s.words 0 words 0 len;
    s.words <- words
  end;
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits))

let remove s i =
  let w = i / bits in
  if w < Array.length s.words then
    s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits))

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let iter f s =
  let words = s.words in
  for w = 0 to Array.length words - 1 do
    let word = words.(w) in
    if word <> 0 then
      let base = w * bits in
      Mvcc_graph.Digraph.iter_bits (fun b -> f (base + b)) word
  done
