let header_words = 2
let label_words = 7
let value_words = 256
let bytes_per_page = value_words * 2

type part = Header | Label | Value

let part_size = function
  | Header -> header_words
  | Label -> label_words
  | Value -> value_words

let pp_part fmt part =
  Format.pp_print_string fmt
    (match part with Header -> "header" | Label -> "label" | Value -> "value")

type t = {
  header : Alto_machine.Word.t array;
  label : Alto_machine.Word.t array;
  value : Alto_machine.Word.t array;
}

let part_of s = function
  | Header -> s.header
  | Label -> s.label
  | Value -> s.value
