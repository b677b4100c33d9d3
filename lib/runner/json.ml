include Json_codec.Json
