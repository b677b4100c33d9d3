(** The project's JSON codec, {!Json_codec.Json}, under the name the
    runner's callers use. *)

include module type of struct
  include Json_codec.Json
end
